//! Offline stand-in for `serde_derive`.
//!
//! Generates impls of the stand-in `serde::Serialize` / `serde::Deserialize`
//! traits (which render through a JSON-shaped `serde::Value`). The parser is
//! deliberately small: it handles exactly the item shapes this workspace
//! derives on —
//!
//! * named-field structs → JSON objects,
//! * one-field tuple structs → transparent (the inner value),
//! * enums of unit and named-field variants → externally tagged, like real
//!   serde's JSON encoding (`"Variant"` / `{"Variant": {...}}`).
//!
//! Generics, tuple variants, and `where` clauses are rejected loudly rather
//! than miscompiled. `#[serde(...)]` attributes are accepted and ignored;
//! the only one used in this workspace is `transparent` on newtypes, which
//! is this derive's default behaviour anyway.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Item {
    NamedStruct {
        name: String,
        fields: Vec<String>,
    },
    NewtypeStruct {
        name: String,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

struct Variant {
    name: String,
    /// `None` = unit variant; `Some(fields)` = named-field variant.
    fields: Option<Vec<String>>,
}

/// Derive the stand-in `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let body = match &item {
        Item::NamedStruct { name, fields } => {
            let entries = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from(\"{f}\"), \
                         ::serde::Serialize::serialize_value(&self.{f})),"
                    )
                })
                .collect::<String>();
            format!(
                "impl ::serde::Serialize for {name} {{\
                   fn serialize_value(&self) -> ::serde::Value {{\
                     ::serde::Value::Object(::std::vec![{entries}])\
                   }}\
                 }}"
            )
        }
        Item::NewtypeStruct { name } => format!(
            "impl ::serde::Serialize for {name} {{\
               fn serialize_value(&self) -> ::serde::Value {{\
                 ::serde::Serialize::serialize_value(&self.0)\
               }}\
             }}"
        ),
        Item::Enum { name, variants } => {
            let arms = variants
                .iter()
                .map(|v| {
                    let vname = &v.name;
                    match &v.fields {
                        None => format!(
                            "{name}::{vname} => ::serde::Value::String(\
                               ::std::string::String::from(\"{vname}\")),"
                        ),
                        Some(fields) => {
                            let pat = fields.join(", ");
                            let entries = fields
                                .iter()
                                .map(|f| {
                                    format!(
                                        "(::std::string::String::from(\"{f}\"), \
                                         ::serde::Serialize::serialize_value({f})),"
                                    )
                                })
                                .collect::<String>();
                            format!(
                                "{name}::{vname} {{ {pat} }} => ::serde::Value::Object(\
                                   ::std::vec![(::std::string::String::from(\"{vname}\"), \
                                     ::serde::Value::Object(::std::vec![{entries}]))]),"
                            )
                        }
                    }
                })
                .collect::<String>();
            format!(
                "impl ::serde::Serialize for {name} {{\
                   fn serialize_value(&self) -> ::serde::Value {{\
                     match self {{ {arms} }}\
                   }}\
                 }}"
            )
        }
    };
    body.parse()
        .expect("serde_derive: generated Serialize impl must parse")
}

/// Derive the stand-in `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let body = match &item {
        Item::NamedStruct { name, fields } => {
            let inits = fields
                .iter()
                .map(|f| {
                    format!(
                        "{f}: ::serde::Deserialize::deserialize_value(\
                           v.get(\"{f}\").unwrap_or(&::serde::Value::Null))\
                           .map_err(|e| e.ctx(\"{name}.{f}\"))?,"
                    )
                })
                .collect::<String>();
            format!(
                "impl ::serde::Deserialize for {name} {{\
                   fn deserialize_value(v: &::serde::Value) \
                       -> ::std::result::Result<Self, ::serde::DeError> {{\
                     if v.as_object().is_none() {{\
                       return ::std::result::Result::Err(\
                         ::serde::DeError::new(\"expected object for {name}\"));\
                     }}\
                     ::std::result::Result::Ok({name} {{ {inits} }})\
                   }}\
                 }}"
            )
        }
        Item::NewtypeStruct { name } => format!(
            "impl ::serde::Deserialize for {name} {{\
               fn deserialize_value(v: &::serde::Value) \
                   -> ::std::result::Result<Self, ::serde::DeError> {{\
                 ::std::result::Result::Ok({name}(\
                   ::serde::Deserialize::deserialize_value(v)\
                     .map_err(|e| e.ctx(\"{name}\"))?))\
               }}\
             }}"
        ),
        Item::Enum { name, variants } => {
            let unit_arms = variants
                .iter()
                .filter(|v| v.fields.is_none())
                .map(|v| {
                    let vname = &v.name;
                    format!("\"{vname}\" => ::std::result::Result::Ok({name}::{vname}),")
                })
                .collect::<String>();
            let tagged_arms = variants
                .iter()
                .filter_map(|v| v.fields.as_ref().map(|fields| (&v.name, fields)))
                .map(|(vname, fields)| {
                    let inits = fields
                        .iter()
                        .map(|f| {
                            format!(
                                "{f}: ::serde::Deserialize::deserialize_value(\
                                   _inner.get(\"{f}\").unwrap_or(&::serde::Value::Null))\
                                   .map_err(|e| e.ctx(\"{name}::{vname}.{f}\"))?,"
                            )
                        })
                        .collect::<String>();
                    format!(
                        "\"{vname}\" => ::std::result::Result::Ok(\
                           {name}::{vname} {{ {inits} }}),"
                    )
                })
                .collect::<String>();
            format!(
                "impl ::serde::Deserialize for {name} {{\
                   fn deserialize_value(v: &::serde::Value) \
                       -> ::std::result::Result<Self, ::serde::DeError> {{\
                     match v {{\
                       ::serde::Value::String(_s) => match _s.as_str() {{\
                         {unit_arms}\
                         other => ::std::result::Result::Err(::serde::DeError::new(\
                           ::std::format!(\"unknown variant `{{other}}` for {name}\"))),\
                       }},\
                       ::serde::Value::Object(_entries) if _entries.len() == 1 => {{\
                         let (_tag, _inner) = &_entries[0];\
                         match _tag.as_str() {{\
                           {tagged_arms}\
                           other => ::std::result::Result::Err(::serde::DeError::new(\
                             ::std::format!(\"unknown variant `{{other}}` for {name}\"))),\
                         }}\
                       }}\
                       _ => ::std::result::Result::Err(::serde::DeError::new(\
                         \"expected variant string or single-key object for {name}\")),\
                     }}\
                   }}\
                 }}"
            )
        }
    };
    body.parse()
        .expect("serde_derive: generated Deserialize impl must parse")
}

// ---------------------------------------------------------------------
// parsing
// ---------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0usize;

    skip_attrs_and_vis(&tokens, &mut i);

    let kind = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive: expected `struct` or `enum`, found {other}"),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive: expected item name, found {other}"),
    };
    i += 1;
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive: generic items are not supported by the offline stand-in");
    }

    match kind.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item::NamedStruct {
                name,
                fields: parse_named_fields(g.stream()),
            },
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                let fields = count_tuple_fields(&inner);
                if fields != 1 {
                    panic!(
                        "serde_derive: tuple struct {name} has {fields} fields; \
                         only 1-field newtypes are supported"
                    );
                }
                Item::NewtypeStruct { name }
            }
            other => panic!("serde_derive: unsupported struct body for {name}: {other:?}"),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item::Enum {
                name,
                variants: parse_variants(g.stream()),
            },
            other => panic!("serde_derive: unsupported enum body for {name}: {other:?}"),
        },
        other => panic!("serde_derive: cannot derive on `{other}` items"),
    }
}

/// Advance past `#[...]` attributes and a `pub` / `pub(...)` visibility.
fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 2; // `#` + bracket group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g))
                    if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1; // `pub(crate)` etc.
                }
            }
            _ => return,
        }
    }
}

/// Field names of a named-field body: `[attrs] [vis] name : Type, ...`.
/// Types are skipped by consuming until a comma at angle-bracket depth 0.
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        let fname = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("serde_derive: expected field name, found {other:?}"),
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("serde_derive: expected `:` after field {fname}, found {other:?}"),
        }
        let mut angle_depth = 0i32;
        while let Some(tok) = tokens.get(i) {
            if let TokenTree::Punct(p) = tok {
                match p.as_char() {
                    '<' => angle_depth += 1,
                    '>' => angle_depth -= 1,
                    ',' if angle_depth == 0 => {
                        i += 1;
                        break;
                    }
                    _ => {}
                }
            }
            i += 1;
        }
        fields.push(fname);
    }
    fields
}

/// Variants of an enum body: `[attrs] Name [ { fields } | (tuple) ], ...`.
fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        let vname = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("serde_derive: expected variant name, found {other:?}"),
        };
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Some(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                panic!(
                    "serde_derive: tuple variant {vname} is not supported by the \
                     offline stand-in; use a named-field variant"
                );
            }
            _ => None,
        };
        // Discriminants (`= expr`) are not used on serde-derived enums here.
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => i += 1,
            None => {}
            Some(other) => panic!("serde_derive: expected `,` after variant, found {other}"),
        }
        variants.push(Variant {
            name: vname,
            fields,
        });
    }
    variants
}

/// Number of fields in a tuple-struct body (top-level comma count).
fn count_tuple_fields(tokens: &[TokenTree]) -> usize {
    if tokens.is_empty() {
        return 0;
    }
    let mut fields = 1usize;
    let mut angle_depth = 0i32;
    for tok in tokens {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => fields += 1,
                _ => {}
            }
        }
    }
    // A trailing comma would overcount; tolerate it.
    if matches!(tokens.last(), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
        fields -= 1;
    }
    fields
}
