//! §5.2: taridx archiving — inode reduction and read throughput.
//!
//! "By the end, we had compiled over 1 billion files (1,034,232,900, to be
//! precise) across 114,552 tar archives — a 9000× reduction in the number
//! of files (and inodes) … Reading from a tar file provides a throughput
//! of ∽575 files/s or ∽87.56 MB/s (at ∽156 KB/file)."
//!
//! The inode arithmetic is reproduced at the campaign's real numbers; the
//! read throughput is measured for real on local disk at the paper's
//! ~156 KB/file member size.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use taridx::IndexedTar;

fn main() {
    mummi_bench::Flags::from_env(&[], &[]);
    // Inode reduction at campaign scale (arithmetic on the real numbers).
    let files: u64 = 1_034_232_900;
    let archives: u64 = 114_552;
    println!("# taridx at campaign scale");
    println!(
        "{} files in {} archives -> {:.0}× inode reduction (paper: 9000×)",
        mummi_bench::group_digits(files),
        mummi_bench::group_digits(archives),
        files as f64 / archives as f64
    );
    println!(
        "mean files/archive: {:.0}; largest archive in the campaign: 6,723,600 files / 455 GB\n",
        files as f64 / archives as f64
    );

    // Local measurement: write one archive of 156 KB members, then read
    // them back in random order through the index.
    let n_files = 2000usize;
    let member_kb = 156usize;
    let dir = std::env::temp_dir().join(format!("taridx-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let path = dir.join("bench.tar");

    let payload = vec![7u8; member_kb * 1024];
    let mut tar = IndexedTar::create(&path).expect("create archive");
    let t0 = std::time::Instant::now();
    for i in 0..n_files {
        tar.append(&format!("member-{i:07}"), &payload)
            .expect("append");
    }
    tar.flush().expect("flush");
    let write_dt = t0.elapsed().as_secs_f64();

    let mut keys: Vec<String> = (0..n_files).map(|i| format!("member-{i:07}")).collect();
    keys.shuffle(&mut rand::rngs::StdRng::seed_from_u64(9));
    let t0 = std::time::Instant::now();
    let mut bytes = 0u64;
    for k in &keys {
        bytes += tar.read(k).expect("read").len() as u64;
    }
    let read_dt = t0.elapsed().as_secs_f64();

    println!("# measured on local disk ({n_files} members × {member_kb} KB)");
    println!(
        "write: {:.0} files/s, {:.1} MB/s",
        n_files as f64 / write_dt,
        bytes as f64 / 1e6 / write_dt
    );
    println!(
        "random-access read: {:.0} files/s, {:.2} MB/s   (paper on GPFS: ~575 files/s, ~87.56 MB/s)",
        n_files as f64 / read_dt,
        bytes as f64 / 1e6 / read_dt
    );
    println!("(local NVMe/tmpfs is faster than contested GPFS; the shape — random access at full sequential-ish bandwidth through the index — is the reproduced property)");

    let inode_files = std::fs::read_dir(&dir).expect("read dir").count();
    println!("inodes used for {n_files} members: {inode_files} (archive + index)");
    std::fs::remove_dir_all(&dir).ok();
}
