//! `soe --config` refuses an unreadable or invalid machine file: it
//! exits nonzero with an error naming the file, before any run starts.

use std::process::Command;

use soe_sim::MachineConfig;

#[test]
fn bad_machine_config_is_an_error_naming_the_file() {
    let dir = std::env::temp_dir().join(format!("soe-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let mut odd = MachineConfig::default();
    odd.l1d.sets = 100;
    let odd = serde_json::to_string(&odd).expect("serialize");
    for (name, contents) in [
        ("malformed.json", "{ \"pipeline\": "),
        ("odd-geometry.json", odd.as_str()),
    ] {
        let path = dir.join(name);
        soe_core::atomic_write(&path, contents.as_bytes()).expect("write config");
        let out = Command::new(env!("CARGO_BIN_EXE_soe"))
            .args(["single", "swim", "--quick", "--config"])
            .arg(&path)
            .output()
            .expect("run soe");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{name}: soe must exit nonzero");
        assert!(
            stderr.contains(&path.display().to_string()),
            "{name}: the error must name the file: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
}
