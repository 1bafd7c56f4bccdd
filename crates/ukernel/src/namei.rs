//! Cross-machine path resolution: local walking, `/n/<host>` mount
//! crossing, and the Sun 3.0 NFS symlink rules.
//!
//! Resolution semantics, matching the paper's environment:
//!
//! * On the **client** (the machine issuing the call), symbolic links are
//!   expanded against the client's own namespace; an absolute target
//!   restarts at the client's root and may enter the client's `/n`
//!   mounts. This is why a program on `classic` can open `/usr/foo` when
//!   `/usr` is a symlink to `/n/brador/usr`.
//! * On a **server** (a machine reached through `/n/<host>`), component
//!   lookups are NFS RPCs. A symbolic link found on the server is
//!   expanded against the *server's* namespace — but the server refuses
//!   to cross its own remote mounts, failing with `EREMOTE`. This
//!   reproduces the paper's observation that `/n/classic/usr/foo` (where
//!   `classic:/usr → /n/brador/usr`) "would actually be
//!   `/n/classic/n/brador/usr/foo`. Unfortunately, NFS does not allow
//!   this syntax" — the exact failure `dumpproc`'s `readlink()` loop
//!   exists to avoid.

use sysdefs::limits::MAXSYMLINKS;
use sysdefs::{Credentials, Errno, SysResult};
use vfs::{path as vpath, WalkOutcome};

use crate::machine::MachineId;
use crate::user::FileRef;
use crate::world::World;

/// How the final component should be treated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FollowLast {
    /// Follow a symlink in the final position (the `open(2)` behaviour).
    Yes,
    /// Return the link itself (`readlink`, `unlink`, `lstat`).
    No,
}

/// The result of a resolution: where the inode lives, plus accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Resolved {
    /// The inode and its owning machine.
    pub fref: FileRef,
    /// Total path components traversed (for cost charging).
    pub components: usize,
    /// NFS lookups among them.
    pub remote_lookups: usize,
}

/// Resolves `path` (absolute, or relative to `cwd`) as seen from
/// `client`.
///
/// Charges nothing; the caller prices the traversal from the returned
/// counts (CPU per component, RPC per remote lookup, disk for cold
/// paths). Checks search permission with `cred` on every directory.
pub fn namei(
    world: &World,
    client: MachineId,
    cred: &Credentials,
    cwd: FileRef,
    path: &str,
    follow_last: FollowLast,
) -> SysResult<Resolved> {
    let mut counts = Resolved {
        fref: cwd,
        components: 0,
        remote_lookups: 0,
    };
    // Current position: machine + directory inode. Relative paths start
    // at the cwd (which may itself be remote), absolute ones at the
    // client's root.
    let mut cur = if vpath::is_absolute(path) {
        FileRef {
            machine: client,
            ino: world.machine(client).fs.root(),
        }
    } else {
        cwd
    };
    let mut remaining: Vec<String> = vpath::raw_components(path).map(str::to_string).collect();

    let mut symlink_budget = MAXSYMLINKS;
    loop {
        if remaining.is_empty() {
            counts.fref = cur;
            return Ok(counts);
        }
        let on_client = cur.machine == client;
        let m = world.machine(cur.machine);

        // Mount interception: at the client's own /n directory the next
        // component names a host.
        if on_client && cur.ino == m.n_dir {
            let host = remaining.remove(0);
            counts.components += 1;
            match m.mounts.get(&host) {
                Some(&server) => {
                    cur = FileRef {
                        machine: server,
                        ino: world.machine(server).fs.root(),
                    };
                    continue;
                }
                None => return Err(Errno::ENOENT),
            }
        }
        // A *server's* /n is off limits: crossing it would need the
        // server to forward the request, which NFS does not do.
        if !on_client && cur.ino == m.n_dir {
            return Err(Errno::EREMOTE);
        }

        // Walk one component at a time so mounts and symlinks can be
        // intercepted machine-by-machine.
        let comp = remaining.remove(0);
        counts.components += 1;
        if comp == ".." {
            // `..` follows the directory's parent link; the root (and a
            // server's exported root) is its own parent, as in NFS.
            let parent = m.fs.parent_of(cur.ino)?;
            cur = FileRef {
                machine: cur.machine,
                ino: parent,
            };
            continue;
        }
        if !on_client {
            counts.remote_lookups += 1;
        }
        // The root → /n hop is on the front of every NFS path a client
        // issues; memoise it per machine, keyed by filesystem mutation
        // generation and credentials, so the directory scan and
        // permission check run once per epoch instead of once per
        // resolution. Simulated accounting is unchanged: the component
        // was already counted above.
        let root_n_hop = on_client && comp == "n" && cur.ino == m.fs.root();
        if root_n_hop {
            if let Some(ino) = m.namei_cache_get(cred) {
                cur = FileRef {
                    machine: cur.machine,
                    ino,
                };
                continue;
            }
        }
        let outcome =
            m.fs.walk(cur.ino, std::slice::from_ref(&comp), Some(cred))?;
        match outcome {
            WalkOutcome::Done(ino) => {
                if root_n_hop {
                    m.namei_cache_fill(cred, ino);
                }
                cur = FileRef {
                    machine: cur.machine,
                    ino,
                };
            }
            WalkOutcome::Symlink { ino, target, .. } => {
                let last = remaining.is_empty();
                if last && follow_last == FollowLast::No {
                    counts.fref = FileRef {
                        machine: cur.machine,
                        ino,
                    };
                    return Ok(counts);
                }
                if symlink_budget == 0 {
                    return Err(Errno::ELOOP);
                }
                symlink_budget -= 1;
                let mut spliced: Vec<String> =
                    vpath::raw_components(&target).map(str::to_string).collect();
                if spliced.iter().any(|c| c == "..") {
                    // Normalise `..` in link targets lexically against
                    // the target itself (absolute targets only).
                    if vpath::is_absolute(&target) {
                        spliced = vpath::components(&target);
                    } else {
                        return Err(Errno::EINVAL);
                    }
                }
                spliced.append(&mut remaining);
                remaining = spliced;
                if vpath::is_absolute(&target) {
                    // Expansion namespace: the machine where the link
                    // lives. Client-side links restart at the client
                    // root (and may enter /n); server-side links restart
                    // at the *server's* root, where any /n crossing will
                    // hit the EREMOTE rule above.
                    cur = FileRef {
                        machine: cur.machine,
                        ino: m.fs.root(),
                    };
                }
                // Relative target: continue from the link's directory,
                // i.e. `cur` unchanged.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KernelConfig;
    use m68vm::IsaLevel;
    use sysdefs::FileMode;

    /// Two machines, cross mounted, with the paper's §4.3 symlink
    /// scenario: on `classic`, `/usr2` is a symlink to `/n/brador/usr2`.
    fn two_machine_world() -> (World, MachineId, MachineId) {
        let mut w = World::new(KernelConfig::paper());
        let classic = w.add_machine("classic", IsaLevel::Isa1);
        let brador = w.add_machine("brador", IsaLevel::Isa1);
        let cred = Credentials::root();
        {
            let m = w.machine_mut(brador);
            let usr = m.fs.lookup(m.fs.root(), "usr").unwrap();
            let u2 = m.fs.mkdir(usr, "alice", FileMode(0o777), &cred).unwrap();
            let f =
                m.fs.create_file(u2, "foo", FileMode::REG_DEFAULT, &cred)
                    .unwrap();
            m.fs.write(f, 0, b"remote contents").unwrap();
        }
        {
            let m = w.machine_mut(classic);
            let root = m.fs.root();
            m.fs.symlink(root, "usr2", "/n/brador/usr/alice", &cred)
                .unwrap();
        }
        (w, classic, brador)
    }

    fn root_at(w: &World, mid: MachineId) -> FileRef {
        FileRef {
            machine: mid,
            ino: w.machine(mid).fs.root(),
        }
    }

    #[test]
    fn plain_local_resolution() {
        let (w, classic, _) = two_machine_world();
        let cwd = root_at(&w, classic);
        let r = namei(
            &w,
            classic,
            &Credentials::root(),
            cwd,
            "/usr/tmp",
            FollowLast::Yes,
        )
        .unwrap();
        assert_eq!(r.fref.machine, classic);
        assert_eq!(r.remote_lookups, 0);
        assert_eq!(r.components, 2);
    }

    #[test]
    fn explicit_n_path_crosses_to_server() {
        let (w, classic, brador) = two_machine_world();
        let cwd = root_at(&w, classic);
        let r = namei(
            &w,
            classic,
            &Credentials::root(),
            cwd,
            "/n/brador/usr/alice/foo",
            FollowLast::Yes,
        )
        .unwrap();
        assert_eq!(r.fref.machine, brador);
        assert!(r.remote_lookups >= 3);
    }

    #[test]
    fn client_side_symlink_into_mount_works() {
        // open("/usr2/foo") on classic: /usr2 -> /n/brador/usr/alice is a
        // *client* link, so it may enter the client's mounts.
        let (w, classic, brador) = two_machine_world();
        let cwd = root_at(&w, classic);
        let r = namei(
            &w,
            classic,
            &Credentials::root(),
            cwd,
            "/usr2/foo",
            FollowLast::Yes,
        )
        .unwrap();
        assert_eq!(r.fref.machine, brador);
    }

    #[test]
    fn server_side_symlink_into_servers_mount_fails_eremote() {
        // The paper's failing case: from a third vantage point (or the
        // restart machine), /n/classic/usr2/foo reaches classic and then
        // hits the symlink there; classic would have to forward through
        // its own /n/brador mount, which NFS refuses.
        let (w, _classic, brador) = two_machine_world();
        let cwd = root_at(&w, brador);
        let err = namei(
            &w,
            brador,
            &Credentials::root(),
            cwd,
            "/n/classic/usr2/foo",
            FollowLast::Yes,
        )
        .unwrap_err();
        assert_eq!(err, Errno::EREMOTE);
    }

    #[test]
    fn follow_last_no_returns_the_link() {
        let (w, classic, _) = two_machine_world();
        let cwd = root_at(&w, classic);
        let r = namei(
            &w,
            classic,
            &Credentials::root(),
            cwd,
            "/usr2",
            FollowLast::No,
        )
        .unwrap();
        assert_eq!(r.fref.machine, classic);
        let target = w.machine(classic).fs.readlink(r.fref.ino).unwrap();
        assert_eq!(target, "/n/brador/usr/alice");
    }

    #[test]
    fn unknown_host_is_enoent() {
        let (w, classic, _) = two_machine_world();
        let cwd = root_at(&w, classic);
        assert_eq!(
            namei(
                &w,
                classic,
                &Credentials::root(),
                cwd,
                "/n/ghost/usr",
                FollowLast::Yes
            )
            .unwrap_err(),
            Errno::ENOENT
        );
    }

    #[test]
    fn symlink_loop_is_eloop() {
        let (mut w, classic, _) = two_machine_world();
        let cred = Credentials::root();
        {
            let m = w.machine_mut(classic);
            let root = m.fs.root();
            m.fs.symlink(root, "a", "/b", &cred).unwrap();
            m.fs.symlink(root, "b", "/a", &cred).unwrap();
        }
        let cwd = root_at(&w, classic);
        assert_eq!(
            namei(&w, classic, &cred, cwd, "/a", FollowLast::Yes).unwrap_err(),
            Errno::ELOOP
        );
    }

    #[test]
    fn root_n_cache_survives_reads_and_invalidates_on_mutation() {
        let (mut w, classic, _brador) = two_machine_world();
        let cred = Credentials::root();
        let cwd = root_at(&w, classic);
        let first = namei(
            &w,
            classic,
            &cred,
            cwd,
            "/n/brador/usr/alice/foo",
            FollowLast::Yes,
        )
        .unwrap();
        assert!(w.machine(classic).namei_cache_get(&cred).is_some());
        // A cache hit resolves identically, with identical accounting.
        let second = namei(
            &w,
            classic,
            &cred,
            cwd,
            "/n/brador/usr/alice/foo",
            FollowLast::Yes,
        )
        .unwrap();
        assert_eq!(first, second);
        // Different credentials miss (permission checks differ).
        let alice = Credentials::user(sysdefs::Uid(7), sysdefs::Gid(7));
        assert!(w.machine(classic).namei_cache_get(&alice).is_none());
        // Any client filesystem mutation invalidates the entry.
        {
            let m = w.machine_mut(classic);
            let root = m.fs.root();
            m.fs.create_file(root, "newfile", FileMode::REG_DEFAULT, &cred)
                .unwrap();
        }
        assert!(w.machine(classic).namei_cache_get(&cred).is_none());
        let third = namei(
            &w,
            classic,
            &cred,
            cwd,
            "/n/brador/usr/alice/foo",
            FollowLast::Yes,
        )
        .unwrap();
        assert_eq!(first.fref, third.fref);
    }

    #[test]
    fn relative_resolution_from_cwd() {
        let (w, classic, _) = two_machine_world();
        let usr = {
            let m = w.machine(classic);
            m.fs.lookup(m.fs.root(), "usr").unwrap()
        };
        let cwd = FileRef {
            machine: classic,
            ino: usr,
        };
        let r = namei(
            &w,
            classic,
            &Credentials::root(),
            cwd,
            "tmp",
            FollowLast::Yes,
        )
        .unwrap();
        assert_eq!(r.fref.machine, classic);
        assert_eq!(r.components, 1);
    }
}
