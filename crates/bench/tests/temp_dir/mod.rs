//! A per-test directory under the system temp dir that removes itself.
//! Shared by the `wcet-bench` and `wcet-serve` integration tests and the
//! disk-memo unit tests.

use std::path::PathBuf;

/// `<temp>/wcet-<tag>-<pid>`, created empty and removed with everything
/// in it when the guard drops — also when the test panics. The pid keeps
/// two test processes apart; `tag` keeps the tests of one process apart.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates the directory, clearing what an aborted run may have left.
    pub fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("wcet-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("creates the temp dir");
        TempDir(dir)
    }

    /// The path of `name` inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
