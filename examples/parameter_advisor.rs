//! Use the analytic model to decide whether randomized rank promotion is
//! worth enabling for a *specific* community, and with which parameters.
//!
//! Run with `cargo run --release --example parameter_advisor`.

use rrp_core::prelude::*;

fn main() {
    // Describe your community: how many pages compete for the same queries,
    // how many users issue them, how many of those users you can observe,
    // how much traffic there is, and how quickly content turns over.
    let communities = [
        (
            "niche forum (visit-starved)",
            CommunityConfig::builder()
                .pages(5_000)
                .users(500)
                .monitored_users(50)
                .total_visits_per_day(500.0)
                .expected_lifetime_years(1.5)
                .build()
                .unwrap(),
        ),
        (
            "hot topic (visit-rich)",
            CommunityConfig::builder()
                .pages(1_000)
                .users(5_000)
                .monitored_users(500)
                .total_visits_per_day(5_000.0)
                .expected_lifetime_years(0.5)
                .build()
                .unwrap(),
        ),
    ];

    let advisor = ParameterAdvisor;
    for (name, community) in communities {
        println!("== {name} ==");
        let advice = advisor.advise(community).expect("valid community");
        println!(
            "  baseline (no randomization) predicted QPC: {:.3}",
            advice.baseline_qpc
        );
        for candidate in &advice.candidates {
            println!(
                "  selective r={:.2}, k={} -> predicted QPC {:.3}",
                candidate.degree, candidate.start_rank, candidate.normalized_qpc
            );
        }
        println!(
            "  recommended: {} (predicted improvement {:+.1}%)",
            advice.recommended_config().label(),
            advice.predicted_improvement() * 100.0
        );
        println!();
    }

    println!("Communities starved for visits benefit most from promotion; visit-rich");
    println!("communities gain little (paper, Figure 7(c)) — the advisor quantifies this");
    println!("before you change anything in production.");
}
