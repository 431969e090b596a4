//! L10 fixture: the crate that declares the public surface.

pub fn reached_elsewhere() {}

pub fn never_named() {}

/// Named elsewhere only in a doc comment and a `pub use`.
pub fn doc_and_reexport_only() {}

pub fn kept_on_purpose() {}

pub const LIMIT: u32 = 3;

pub fn listed_but_reached() {}

fn private_helper() {}

pub(crate) fn crate_only() {}

#[cfg(test)]
mod tests {
    pub fn test_only() {}
}
