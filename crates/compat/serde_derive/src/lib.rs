//! Hand-rolled `#[derive(Serialize)]` / `#[derive(Deserialize)]` macros for
//! the vendored minimal `serde` facade.
//!
//! The build environment has no crates.io access, so this proc-macro crate
//! parses the item's token stream directly (no `syn`/`quote`) and emits
//! implementations of the facade's traits: `to_value` and `write_json`
//! (both rendered from one description of the fields, so the JSON a type
//! writes directly is byte for byte the JSON of its tree) and
//! `read_json`, which reads the fields straight off a `serde::Reader`
//! with no tree. It supports exactly the shapes this workspace derives on:
//! structs (named, tuple, unit) and enums (unit, newtype, tuple and struct
//! variants), plus the `#[serde(transparent)]` container attribute and the
//! `#[serde(skip)]` / `#[serde(default)]` field attributes. Types take no
//! type parameters; `Serialize` also derives on types with lifetime
//! parameters (a view borrowing its fields).

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derive the facade's `Serialize` trait.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    generate_serialize(&item)
        .parse()
        .expect("generated Serialize impl parses")
}

/// Derive the facade's `Deserialize` trait.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    generate_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl parses")
}

// ---------------------------------------------------------------------------
// A tiny structural model of the derived item.

struct Field {
    /// Named-field name, or tuple index rendered as a string.
    name: String,
    /// Skipped fields are omitted on serialize and defaulted on deserialize.
    skip: bool,
    /// Defaulted fields fall back to `Default::default()` when missing.
    default: bool,
}

enum Shape {
    Unit,
    /// Tuple struct / tuple variant with `n` unnamed fields.
    Tuple(Vec<Field>),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Body {
    Struct(Shape),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    /// The lifetime parameters, as written in `impl<…>` and `Name<…>`
    /// (empty when there are none).
    generics: String,
    transparent: bool,
    body: Body,
}

// ---------------------------------------------------------------------------
// Token-stream parsing.

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let mut transparent = false;

    // Outer attributes and visibility.
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
                    if attr_is_serde_flag(g.stream(), "transparent") {
                        transparent = true;
                    }
                }
                i += 2;
            }
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                i += 1;
                // `pub(crate)` and friends carry a parenthesized group.
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => break,
        }
    }

    let kind = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("expected `struct` or `enum`, found {other}"),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("expected type name, found {other}"),
    };
    i += 1;

    let mut lifetimes = Vec::new();
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        i += 1;
        loop {
            match (tokens.get(i), tokens.get(i + 1)) {
                (Some(TokenTree::Punct(p)), Some(TokenTree::Ident(id))) if p.as_char() == '\'' => {
                    lifetimes.push(format!("'{id}"));
                    i += 2;
                }
                (Some(TokenTree::Punct(p)), _) if p.as_char() == ',' => i += 1,
                (Some(TokenTree::Punct(p)), _) if p.as_char() == '>' => {
                    i += 1;
                    break;
                }
                _ => panic!(
                    "serde_derive (vendored): only lifetime parameters without bounds are \
                     supported, found `{name}<...>`"
                ),
            }
        }
    }
    let generics = if lifetimes.is_empty() {
        String::new()
    } else {
        format!("<{}>", lifetimes.join(", "))
    };

    let body = match kind.as_str() {
        "struct" => {
            match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Body::Struct(Shape::Named(parse_named_fields(g.stream())))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Body::Struct(Shape::Tuple(parse_tuple_fields(g.stream())))
                }
                // Unit struct: `struct Name;`
                _ => Body::Struct(Shape::Unit),
            }
        }
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::Enum(parse_variants(g.stream()))
            }
            other => panic!("expected enum body, found {other:?}"),
        },
        other => panic!("cannot derive for `{other}` items"),
    };

    Item {
        name,
        generics,
        transparent,
        body,
    }
}

/// Does `#[serde(...)]` attribute content contain the given flag word?
fn attr_is_serde_flag(attr: TokenStream, flag: &str) -> bool {
    let tokens: Vec<TokenTree> = attr.into_iter().collect();
    match tokens.first() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return false,
    }
    match tokens.get(1) {
        Some(TokenTree::Group(g)) => g
            .stream()
            .into_iter()
            .any(|t| matches!(&t, TokenTree::Ident(id) if id.to_string() == flag)),
        _ => false,
    }
}

/// Parse named fields, tracking `#[serde(skip)]` / `#[serde(default)]`.
fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let mut skip = false;
        let mut default = false;
        // Field attributes.
        while matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
                skip |= attr_is_serde_flag(g.stream(), "skip");
                default |= attr_is_serde_flag(g.stream(), "default");
            }
            i += 2;
        }
        // Visibility.
        if matches!(&tokens.get(i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
            i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    i += 1;
                }
            }
        }
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("expected field name, found {other:?}"),
        };
        i += 1;
        // Colon.
        i += 1;
        // Skip the type: everything until a comma at zero angle-bracket depth.
        let mut depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        fields.push(Field {
            name,
            skip,
            default,
        });
    }
    fields
}

/// Parse tuple-struct fields (only count and per-field attrs matter).
fn parse_tuple_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    let mut any = false;
    let mut skip = false;
    let mut default = false;
    let mut depth = 0i32;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' && depth == 0 => {
                if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
                    skip |= attr_is_serde_flag(g.stream(), "skip");
                    default |= attr_is_serde_flag(g.stream(), "default");
                }
                i += 1; // the group is consumed by the generic advance below
            }
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                fields.push(Field {
                    name: fields.len().to_string(),
                    skip,
                    default,
                });
                skip = false;
                default = false;
                any = false;
                i += 1;
                continue;
            }
            _ => any = true,
        }
        i += 1;
    }
    if any {
        fields.push(Field {
            name: fields.len().to_string(),
            skip,
            default,
        });
    }
    fields
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Variant attributes.
        while matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            i += 2;
        }
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("expected variant name, found {other:?}"),
        };
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Shape::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Shape::Tuple(parse_tuple_fields(g.stream()))
            }
            _ => Shape::Unit,
        };
        // Skip an optional discriminant and the trailing comma.
        while i < tokens.len() {
            if matches!(&tokens[i], TokenTree::Punct(p) if p.as_char() == ',') {
                i += 1;
                break;
            }
            i += 1;
        }
        variants.push(Variant { name, shape });
    }
    variants
}

// ---------------------------------------------------------------------------
// Code generation (as source text, parsed back into a token stream).

fn generate_serialize(item: &Item) -> String {
    let name = &item.name;
    let generics = &item.generics;
    let to_value = serialize_body(item, &value_expr);
    let write_json = serialize_body(item, &|form| {
        format!("{{ {}::std::result::Result::Ok(()) }}", write_stmts(form))
    });
    format!(
        "impl{generics} ::serde::Serialize for {name}{generics} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {to_value} }}\n\
             fn write_json(&self, __out: &mut ::std::string::String) \
                 -> ::std::result::Result<(), ::serde::SerError> {{ {write_json} }}\n\
         }}"
    )
}

/// What a shape serializes as. Both `to_value` and `write_json` are
/// rendered from it, so they cannot disagree on a field.
enum Form {
    /// A newtype or transparent container: its one field, as itself.
    Forward(String),
    /// An array of the fields.
    Seq(Vec<String>),
    /// A map of `(name, field)` entries.
    Map(Vec<(String, String)>),
    /// A unit variant: its name as a string.
    Tag(String),
    /// Any other variant, externally tagged: a one-entry map from its name
    /// to its fields' form.
    Tagged(String, Box<Form>),
}

/// The serialize body of `item`, each form rendered by `render`: the
/// struct's one form, or a `match self` with one arm per variant.
fn serialize_body(item: &Item, render: &dyn Fn(&Form) -> String) -> String {
    let name = &item.name;
    match &item.body {
        Body::Struct(shape) => render(&shape_form(shape, item.transparent, "self.")),
        Body::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                let pattern = match &v.shape {
                    Shape::Unit => String::new(),
                    Shape::Tuple(fields) => {
                        let binders: Vec<String> =
                            (0..fields.len()).map(|i| format!("__f{i}")).collect();
                        format!("({})", binders.join(", "))
                    }
                    Shape::Named(fields) => {
                        let binders: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        format!(" {{ {} }}", binders.join(", "))
                    }
                };
                let form = match &v.shape {
                    Shape::Unit => Form::Tag(vname.clone()),
                    shape => Form::Tagged(vname.clone(), Box::new(shape_form(shape, false, ""))),
                };
                arms.push_str(&format!("{name}::{vname}{pattern} => {},\n", render(&form)));
            }
            format!("match self {{ {arms} }}")
        }
    }
}

/// The form of a struct-like shape. `access` is the prefix for reaching
/// fields (`self.` for structs, empty for variant bindings).
fn shape_form(shape: &Shape, transparent: bool, access: &str) -> Form {
    match shape {
        Shape::Unit => Form::Map(Vec::new()),
        Shape::Tuple(fields) => {
            let active: Vec<String> = fields
                .iter()
                .filter(|f| !f.skip)
                .map(|f| format!("&{access}{}", binding(access, &f.name)))
                .collect();
            if transparent || active.len() == 1 {
                let field = active.into_iter().next();
                Form::Forward(field.expect("transparent/newtype needs a field"))
            } else {
                Form::Seq(active)
            }
        }
        Shape::Named(fields) => {
            let mut active = fields
                .iter()
                .filter(|f| !f.skip)
                .map(|f| (f.name.clone(), format!("&{access}{}", f.name)));
            if transparent {
                Form::Forward(active.next().expect("transparent needs a field").1)
            } else {
                Form::Map(active.collect())
            }
        }
    }
}

/// Tuple fields of variants are bound to `__fN` names; struct fields keep
/// their own names; `self.` access uses the index/name directly.
fn binding(access: &str, field: &str) -> String {
    if access.is_empty() {
        format!("__f{field}")
    } else {
        field.to_string()
    }
}

/// `to_value`: an expression building the form's `Value`.
fn value_expr(form: &Form) -> String {
    let to_value = |field: &str| format!("::serde::Serialize::to_value({field})");
    let key = |name: &str| format!("::std::string::String::from({name:?})");
    match form {
        Form::Forward(field) => to_value(field),
        Form::Seq(fields) => {
            let items: Vec<String> = fields.iter().map(|f| to_value(f)).collect();
            format!("::serde::Value::Seq(::std::vec![{}])", items.join(", "))
        }
        Form::Map(entries) => {
            let items: Vec<String> = entries
                .iter()
                .map(|(name, field)| format!("({}, {})", key(name), to_value(field)))
                .collect();
            format!("::serde::Value::Map(::std::vec![{}])", items.join(", "))
        }
        Form::Tag(tag) => format!("::serde::Value::Str({})", key(tag)),
        Form::Tagged(tag, inner) => format!(
            "::serde::Value::Map(::std::vec![({}, {})])",
            key(tag),
            value_expr(inner)
        ),
    }
}

/// `write_json`: statements appending the form's JSON to `__out`, the
/// bytes [`value_expr`]'s tree renders to. Keys and tags are
/// identifiers, which need no JSON escape.
fn write_stmts(form: &Form) -> String {
    let text = |text: &str| format!("__out.push_str({text:?}); ");
    let write = |field: &str| format!("::serde::Serialize::write_json({field}, __out)?; ");
    let wrap = |open: &str, items: Vec<String>, close: &str| {
        format!("{}{}{}", text(open), items.join(&text(",")), text(close))
    };
    match form {
        Form::Forward(field) => write(field),
        Form::Seq(fields) => wrap("[", fields.iter().map(|f| write(f)).collect(), "]"),
        Form::Map(entries) => {
            let items = entries
                .iter()
                .map(|(name, field)| text(&format!("\"{name}\":")) + &write(field))
                .collect();
            wrap("{", items, "}")
        }
        Form::Tag(tag) => text(&format!("\"{tag}\"")),
        Form::Tagged(tag, inner) => wrap(&format!("{{\"{tag}\":"), vec![write_stmts(inner)], "}"),
    }
}

fn generate_deserialize(item: &Item) -> String {
    let name = &item.name;
    if !item.generics.is_empty() {
        panic!("serde_derive (vendored): cannot derive Deserialize for `{name}<...>`");
    }
    let body = match &item.body {
        Body::Struct(shape) => read_shape_expr(name, shape, item.transparent),
        Body::Enum(variants) => read_enum_expr(name, variants),
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn read_json(__r: &mut ::serde::Reader<'_>) \
                 -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
}

/// An externally tagged enum: a unit variant is its name as a string,
/// any other variant a map whose first entry is its name and fields.
/// Later entries are checked and skipped.
fn read_enum_expr(name: &str, variants: &[Variant]) -> String {
    let unknown = error(&format!("unknown {name} variant"));
    let mut unit_arms = String::new();
    let mut tagged_arms = String::new();
    for v in variants {
        let constructor = format!("{name}::{}", v.name);
        match &v.shape {
            Shape::Unit => unit_arms.push_str(&format!(
                "{:?} => ::std::result::Result::Ok({constructor}),\n",
                v.name
            )),
            shape => tagged_arms.push_str(&format!(
                "{:?} => {{ {} }}?,\n",
                v.name,
                read_shape_expr(&constructor, shape, false)
            )),
        }
    }
    let from_str = if unit_arms.is_empty() {
        unknown.clone()
    } else {
        format!("match &*__r.read_str()? {{ {unit_arms} _ => {unknown} }}")
    };
    let from_map = if tagged_arms.is_empty() {
        unknown.clone()
    } else {
        format!(
            "let mut __value: ::std::option::Option<Self> = ::std::option::Option::None;\n\
             __r.read_map(|__r, __tag| {{\n\
                 if __value.is_some() {{ return __r.skip_value(); }}\n\
                 __value = ::std::option::Option::Some(match __tag {{\n\
                     {tagged_arms} _ => return {unknown},\n\
                 }});\n\
                 ::std::result::Result::Ok(())\n\
             }})?;\n\
             match __value {{ ::std::option::Option::Some(__v) => ::std::result::Result::Ok(__v), \
                 ::std::option::Option::None => {unknown} }}"
        )
    };
    format!(
        "match __r.peek() {{\n\
             ::std::option::Option::Some(b'\"') => {{ {from_str} }}\n\
             ::std::option::Option::Some(b'{{') => {{ {from_map} }}\n\
             _ => {unknown},\n\
         }}"
    )
}

/// An expression reading a struct-like shape off `__r` into
/// `Result<_, DeError>`, built by `constructor` (a type or a variant
/// path). Skipped fields are `Default::default()`.
fn read_shape_expr(constructor: &str, shape: &Shape, transparent: bool) -> String {
    let fields = match shape {
        Shape::Tuple(fields) => return read_tuple_expr(constructor, fields, transparent),
        // `Name {}` builds a unit struct too.
        Shape::Unit => &[][..],
        Shape::Named(fields) => fields,
    };
    let init = |f: &Field, value: &str| {
        let value = if f.skip { DEFAULT } else { value };
        format!("{}: {value}", f.name)
    };
    if transparent {
        let mut active = fields.iter().filter(|f| !f.skip);
        let field = active.next().expect("transparent needs a field");
        let inits: Vec<String> = fields
            .iter()
            .map(|f| init(f, if f.name == field.name { READ } else { DEFAULT }))
            .collect();
        return ok(&format!("{constructor} {{ {} }}", inits.join(", ")));
    }
    // A map: the first entry of each field's key is read, every other
    // entry is checked and skipped. A unit struct reads any value as one
    // with no entries; a named-field struct (`Name {}` included) reads
    // only a map.
    let active: Vec<&Field> = fields.iter().filter(|f| !f.skip).collect();
    let lets: String = active
        .iter()
        .map(|f| format!("let mut __f_{} = ::std::option::Option::None;\n", f.name))
        .collect();
    let arms: String = active
        .iter()
        .map(|f| {
            format!(
                "{0:?} if __f_{0}.is_none() => __f_{0} = ::std::option::Option::Some({READ}),\n",
                f.name
            )
        })
        .collect();
    let inits: Vec<String> = fields
        .iter()
        .map(|f| {
            let missing = if f.default {
                DEFAULT.to_string()
            } else {
                format!("return {}", error(&format!("missing field `{}`", f.name)))
            };
            let value = format!(
                "match __f_{} {{ ::std::option::Option::Some(__v) => __v, \
                 ::std::option::Option::None => {missing} }}",
                f.name
            );
            init(f, &value)
        })
        .collect();
    let read_map = format!(
        "__r.read_map(|__r, __key| {{\n\
             match __key {{ {arms} _ => __r.skip_value()?, }}\n\
             ::std::result::Result::Ok(())\n\
         }})?;"
    );
    let read = match shape {
        Shape::Unit => format!(
            "if __r.peek() == ::std::option::Option::Some(b'{{') {{ {read_map} }} \
             else {{ __r.skip_value()?; }}"
        ),
        _ => format!(
            "if __r.peek() != ::std::option::Option::Some(b'{{') {{ return {}; }}\n{read_map}",
            error(&format!("expected a map for {constructor}"))
        ),
    };
    format!(
        "{lets}{read}\n{}",
        ok(&format!("{constructor} {{ {} }}", inits.join(", ")))
    )
}

/// [`read_shape_expr`] for tuple fields: a newtype (or transparent) reads
/// as its one field, any other tuple as a sequence of exactly its active
/// fields.
fn read_tuple_expr(constructor: &str, fields: &[Field], transparent: bool) -> String {
    let active: Vec<usize> = (0..fields.len()).filter(|&i| !fields[i].skip).collect();
    if transparent || active.len() == 1 {
        let args: Vec<&str> = fields
            .iter()
            .map(|f| if f.skip { DEFAULT } else { READ })
            .collect();
        return ok(&format!("{constructor}({})", args.join(", ")));
    }
    let slots: Vec<String> = active.iter().map(|i| format!("__f{i}")).collect();
    let lets: String = slots
        .iter()
        .map(|slot| format!("let mut {slot} = ::std::option::Option::None;\n"))
        .collect();
    let arms: String = slots
        .iter()
        .enumerate()
        .map(|(n, slot)| format!("{n} => {slot} = ::std::option::Option::Some({READ}),\n"))
        .collect();
    let filled: Vec<String> = slots
        .iter()
        .map(|slot| format!("::std::option::Option::Some({slot})"))
        .collect();
    let args: Vec<String> = fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            if f.skip {
                DEFAULT.to_string()
            } else {
                format!("__f{i}")
            }
        })
        .collect();
    let count = active.len();
    format!(
        "{lets}let mut __len = 0usize;\n\
         __r.read_seq(|__r| {{\n\
             match __len {{ {arms} _ => __r.skip_value()?, }}\n\
             __len += 1;\n\
             ::std::result::Result::Ok(())\n\
         }})?;\n\
         match ({}) {{\n\
             ({}) if __len == {count} => {},\n\
             _ => ::std::result::Result::Err(__r.error(::std::format_args!(\n\
                 \"expected {count} elements for {constructor}, got {{}}\", __len))),\n\
         }}",
        slots.join(", "),
        filled.join(", "),
        ok(&format!("{constructor}({})", args.join(", ")))
    )
}

/// A skipped field's value.
const DEFAULT: &str = "::std::default::Default::default()";

/// A field read off `__r`.
const READ: &str = "::serde::Deserialize::read_json(__r)?";

/// An `Ok` result.
fn ok(built: &str) -> String {
    format!("::std::result::Result::Ok({built})")
}

/// An error result with a fixed message.
fn error(message: &str) -> String {
    format!("::std::result::Result::Err(__r.error({message:?}))")
}
