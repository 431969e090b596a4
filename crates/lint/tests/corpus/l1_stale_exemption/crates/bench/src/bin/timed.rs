//! Fixture: an exempt benchmark that still reads the host clock.
fn main() {
    println!("{:?}", std::time::Instant::now().elapsed());
}
