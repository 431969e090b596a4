//! A sidecar index is read from disk, so `IndexedTar::open` checks it
//! against the member headers before trusting it. An entry whose size or
//! offset no header backs is treated like an unreadable sidecar: the index
//! is rebuilt from the tar stream, and reads return the stored payload.

use std::fs;

use taridx::IndexedTar;

#[test]
fn a_sidecar_that_disagrees_with_the_headers_is_rebuilt() {
    let dir = std::env::temp_dir().join(format!("taridx-sidecar-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("a.tar");
    let sidecar = dir.join("a.tar.idx");
    let payload = b"0123456789";

    // A size inside the member's padding, one no buffer can hold, one that
    // overflows capacity, and an offset that is not a payload start.
    for record in [
        "512\t100\ta\n".to_string(),
        "512\t1099511627776\ta\n".to_string(),
        format!("512\t{}\ta\n", u64::MAX),
        "0\t10\ta\n".to_string(),
    ] {
        let mut tar = IndexedTar::create(&path).unwrap();
        tar.append("a", payload).unwrap();
        tar.flush().unwrap();
        drop(tar);
        assert_eq!(fs::read_to_string(&sidecar).unwrap(), "512\t10\ta\n");
        fs::write(&sidecar, &record).unwrap();

        let mut tar = IndexedTar::open(&path).unwrap();
        assert_eq!(tar.read("a").unwrap(), payload, "sidecar {record:?}");
        assert_eq!(tar.keys(), ["a"]);
        // The rebuild also finds the append point: a later member lands
        // after `a` and both read back.
        tar.append("b", b"bee").unwrap();
        assert_eq!(tar.read("a").unwrap(), payload);
        assert_eq!(tar.read("b").unwrap(), b"bee");
    }
    fs::remove_dir_all(dir).unwrap();
}

#[test]
fn a_sidecar_with_a_key_removed_is_still_trusted() {
    // The sidecar is the live view: a removed key is absent from it while
    // its member stays in the stream, and that must not force a rebuild
    // that would bring the key back.
    let dir = std::env::temp_dir().join(format!("taridx-sidecar-rm-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("a.tar");
    {
        let mut tar = IndexedTar::create(&path).unwrap();
        tar.append("keep", b"k").unwrap();
        tar.append("gone", b"g").unwrap();
        assert!(tar.remove_key("gone"));
        tar.flush().unwrap();
    }
    let tar = IndexedTar::open(&path).unwrap();
    assert_eq!(tar.keys(), ["keep"]);
    fs::remove_dir_all(dir).unwrap();
}
