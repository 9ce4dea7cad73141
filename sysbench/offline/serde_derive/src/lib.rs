//! Offline stand-in for `serde_derive`: `#[derive(Serialize)]` expands to
//! an empty marker impl (see the `serde` stand-in beside this crate).

use proc_macro::{TokenStream, TokenTree};

/// Implements the marker `serde::Serialize` for a non-generic struct or
/// enum; `#[serde(..)]` attributes are accepted and ignored.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let mut tokens = input.into_iter();
    while let Some(token) = tokens.next() {
        let TokenTree::Ident(keyword) = &token else {
            continue;
        };
        if !matches!(keyword.to_string().as_str(), "struct" | "enum") {
            continue;
        }
        let Some(TokenTree::Ident(name)) = tokens.next() else {
            break;
        };
        if matches!(tokens.next(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
            return error("the offline serde stand-in does not derive for generic types");
        }
        return format!("impl ::serde::Serialize for {name} {{}}")
            .parse()
            .expect("generated impl is valid Rust");
    }
    error("the offline serde stand-in expected a struct or enum")
}

fn error(message: &str) -> TokenStream {
    format!("compile_error!({message:?});")
        .parse()
        .expect("generated compile_error is valid Rust")
}
