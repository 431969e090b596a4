//! L10 fixture: the crate that calls into `surface`.

pub use surface::doc_and_reexport_only;
use surface::{
    never_named,
};

/// Mentions [`surface::doc_and_reexport_only`] and `never_named` in docs.
fn call() {
    surface::reached_elsewhere();
    surface::listed_but_reached();
    let _ = surface::LIMIT;
    let _ = "never_named";
}
