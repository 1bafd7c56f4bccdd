//! User-level symbolic-link resolution, §4.3's fix for the NFS naming
//! problem.
//!
//! Dumped path names "have been constructed by combining the names given
//! by the process to the kernel ... This means that symbolic links are
//! not resolved and this may cause problems when trying to reopen a file
//! when restarting the process. ... The way to solve this problem is to
//! resolve symbolic links before files are reopened. The Sun 3.0
//! operating system provides the `readlink()` system call, which can be
//! used iteratively to resolve all symbolic links in a pathname."

use sysdefs::{Errno, SysResult};
use ukernel::Sys;

/// Maximum expansions before giving up, mirroring the kernel's own
/// symlink budget.
const MAX_EXPANSIONS: usize = 32;

/// Resolves every symbolic link in an absolute `path` using repeated
/// `readlink()` calls, returning a link-free absolute path.
///
/// Relative link targets are spliced in place; absolute targets restart
/// the prefix. Components that do not exist (yet) are kept verbatim —
/// `dumpproc` may resolve paths whose final component it has not created.
pub async fn resolve_links(sys: &Sys, path: &str) -> SysResult<String> {
    if !path.starts_with('/') {
        return Err(Errno::EINVAL);
    }
    let mut components: Vec<String> = path
        .split('/')
        .filter(|c| !c.is_empty() && *c != ".")
        .map(str::to_string)
        .collect();
    let mut resolved: Vec<String> = Vec::new();
    let mut budget = MAX_EXPANSIONS;

    while !components.is_empty() {
        let comp = components.remove(0);
        if comp == ".." {
            resolved.pop();
            continue;
        }
        let prefix = format!("/{}", {
            let mut v = resolved.clone();
            v.push(comp.clone());
            v.join("/")
        });
        match sys.readlink(&prefix).await {
            Ok(target) => {
                if budget == 0 {
                    return Err(Errno::ELOOP);
                }
                budget -= 1;
                let target_comps: Vec<String> = target
                    .split('/')
                    .filter(|c| !c.is_empty() && *c != ".")
                    .map(str::to_string)
                    .collect();
                if target.starts_with('/') {
                    resolved.clear();
                }
                // Splice the target in front of the remaining components.
                let mut rest = target_comps;
                rest.append(&mut components);
                components = rest;
            }
            Err(Errno::EINVAL) => {
                // Not a symlink: keep the component.
                resolved.push(comp);
            }
            Err(Errno::ENOENT) => {
                // Component (or a parent) does not exist: keep it and
                // everything after it verbatim.
                resolved.push(comp);
                resolved.append(&mut components);
            }
            Err(e) => return Err(e),
        }
    }
    if resolved.is_empty() {
        Ok("/".to_string())
    } else {
        Ok(format!("/{}", resolved.join("/")))
    }
}

/// `dumpproc`'s per-path rewrite rule (§4.4): resolve links, then map
/// terminals to `/dev/tty` and prepend `/n/<machine>` to local names.
pub async fn rewrite_for_migration(sys: &Sys, path: &str, local_host: &str) -> SysResult<String> {
    // "If a file name points to a terminal, it is changed to /dev/tty,
    // to point to the current terminal of the process that will open
    // it."
    if path == "/dev/tty" || path.starts_with("/dev/tty") || path == "/dev/console" {
        return Ok("/dev/tty".to_string());
    }
    let resolved = resolve_links(sys, path).await?;
    // "Otherwise, if after resolving the symbolic links, a file is found
    // to be local to the machine ... (i.e., its name does not begin with
    // /n), the string /n/<machinename> is prepended to its name."
    if resolved == "/n" || resolved.starts_with("/n/") {
        Ok(resolved)
    } else if resolved == "/" {
        Ok(format!("/n/{local_host}"))
    } else {
        Ok(format!("/n/{local_host}{resolved}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m68vm::IsaLevel;
    use sysdefs::Credentials;
    use ukernel::{KernelConfig, World};

    /// Runs a closure as a native process and returns its exit status.
    fn run_native<F: std::future::Future<Output = u32> + 'static>(
        w: &mut World,
        mid: usize,
        f: impl FnOnce(Sys) -> F + 'static,
    ) -> u32 {
        let pid = w.spawn_native_proc(mid, "test", None, Credentials::root(), f);
        w.run_until_exit(mid, pid, 200_000)
            .expect("native exits")
            .status
    }

    #[test]
    fn resolves_chained_and_relative_links() {
        let mut w = World::new(KernelConfig::paper());
        let m = w.add_machine("classic", IsaLevel::Isa1);
        let status = run_native(&mut w, m, |sys| async move {
            sys.mkdir("/real", 0o755).await.unwrap();
            sys.mkdir("/real/dir", 0o755).await.unwrap();
            sys.creat("/real/dir/file", 0o644).await.unwrap();
            sys.symlink("/real", "/alias").await.unwrap();
            sys.symlink("dir", "/real/sub").await.unwrap(); // Relative target.
            let r = resolve_links(&sys, "/alias/sub/file").await.unwrap();
            assert_eq!(r, "/real/dir/file");
            0
        });
        assert_eq!(status, 0);
    }

    #[test]
    fn missing_tail_kept_verbatim() {
        let mut w = World::new(KernelConfig::paper());
        let m = w.add_machine("classic", IsaLevel::Isa1);
        let status = run_native(&mut w, m, |sys| async move {
            sys.mkdir("/real", 0o755).await.unwrap();
            sys.symlink("/real", "/alias").await.unwrap();
            let r = resolve_links(&sys, "/alias/not/yet/there").await.unwrap();
            assert_eq!(r, "/real/not/yet/there");
            0
        });
        assert_eq!(status, 0);
    }

    #[test]
    fn loop_detected() {
        let mut w = World::new(KernelConfig::paper());
        let m = w.add_machine("classic", IsaLevel::Isa1);
        let status = run_native(&mut w, m, |sys| async move {
            sys.symlink("/b", "/a").await.unwrap();
            sys.symlink("/a", "/b").await.unwrap();
            match resolve_links(&sys, "/a/x").await {
                Err(Errno::ELOOP) => 0,
                other => {
                    let _ = other;
                    1
                }
            }
        });
        assert_eq!(status, 0);
    }

    #[test]
    fn rewrite_maps_terminals_and_prepends_host() {
        let mut w = World::new(KernelConfig::paper());
        let m = w.add_machine("brick", IsaLevel::Isa1);
        let _n = w.add_machine("brador", IsaLevel::Isa1);
        let status = run_native(&mut w, m, |sys| async move {
            sys.mkdir("/work", 0o777).await.unwrap();
            sys.creat("/work/out", 0o644).await.unwrap();
            assert_eq!(
                rewrite_for_migration(&sys, "/dev/tty3", "brick")
                    .await
                    .unwrap(),
                "/dev/tty"
            );
            assert_eq!(
                rewrite_for_migration(&sys, "/work/out", "brick")
                    .await
                    .unwrap(),
                "/n/brick/work/out"
            );
            // Already-remote names are left alone.
            assert_eq!(
                rewrite_for_migration(&sys, "/n/brador/tmp/x", "brick")
                    .await
                    .unwrap(),
                "/n/brador/tmp/x"
            );
            0
        });
        assert_eq!(status, 0);
    }

    #[test]
    fn rewrite_resolves_the_papers_nfs_case() {
        // §4.3's example: /usr2 on classic is a symlink to
        // /n/brador/usr2; the rewrite must produce the brador name, NOT
        // /n/classic/usr2 (which would hit the EREMOTE wall).
        let mut w = World::new(KernelConfig::paper());
        let classic = w.add_machine("classic", IsaLevel::Isa1);
        let brador = w.add_machine("brador", IsaLevel::Isa1);
        w.host_mkdir_p(brador, "/usr2/alice").unwrap();
        w.host_write_file(brador, "/usr2/alice/foo", b"x").unwrap();
        let status = run_native(&mut w, classic, |sys| async move {
            sys.symlink("/n/brador/usr2", "/usr2").await.unwrap();
            let r = rewrite_for_migration(&sys, "/usr2/alice/foo", "classic")
                .await
                .unwrap();
            assert_eq!(r, "/n/brador/usr2/alice/foo");
            0
        });
        assert_eq!(status, 0);
    }
}
