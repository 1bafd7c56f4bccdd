//! The inode filesystem of one simulated machine.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::rc::Rc;

use sysdefs::limits::MAXFILESIZE;
use sysdefs::{Access, Credentials, Errno, FileMode, Gid, SysResult, Uid};

/// An inode number.
pub type Ino = u32;

/// A character device named by the filesystem but serviced by the kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeviceId {
    /// The bit bucket, `/dev/null`.
    Null,
    /// A terminal, `/dev/ttyN` or `/dev/console`. The id indexes the
    /// world's terminal table.
    Tty(u32),
}

/// What an inode is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InodeKind {
    /// A regular file and its contents, shared copy-on-write: a
    /// whole-file read ([`Filesystem::contents`]) hands out the buffer
    /// itself, and a write copies it first only while a reader still
    /// holds it, so a shared buffer is never mutated in place.
    Regular(Rc<Vec<u8>>),
    /// A directory: name to inode map.
    Directory(BTreeMap<String, Ino>),
    /// A symbolic link: "files containing the name of another file".
    Symlink(String),
    /// A character device.
    Device(DeviceId),
}

/// An inode: kind plus ownership and permissions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inode {
    /// This inode's number.
    pub ino: Ino,
    /// For directories: the parent directory (the root is its own
    /// parent), used to resolve `..` during walks. Meaningless for
    /// other kinds.
    pub parent: Ino,
    /// Kind and contents.
    pub kind: InodeKind,
    /// Permission bits.
    pub mode: FileMode,
    /// Owning user.
    pub uid: Uid,
    /// Owning group.
    pub gid: Gid,
    /// Hard-link count.
    pub nlink: u32,
}

impl Inode {
    /// Is this a directory?
    pub fn is_dir(&self) -> bool {
        matches!(self.kind, InodeKind::Directory(_))
    }

    /// Length of a regular file's contents (0 for other kinds).
    pub fn len(&self) -> usize {
        match &self.kind {
            InodeKind::Regular(data) => data.len(),
            _ => 0,
        }
    }

    /// Is this a zero-length or non-regular inode?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The outcome of a [`Filesystem::walk`]: resolution either finished or
/// stopped at a symbolic link for the caller to expand.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalkOutcome {
    /// Every component resolved; here is the final inode.
    Done(Ino),
    /// A symbolic link was met. The caller must splice `target` in front
    /// of `remaining` and restart resolution (possibly on another
    /// machine, if the target is absolute and crosses a mount).
    Symlink {
        /// The link inode itself (what `readlink` reads).
        ino: Ino,
        /// The link's contents.
        target: String,
        /// Path components not yet consumed, in order.
        remaining: Vec<String>,
    },
}

/// One machine's filesystem: an inode arena rooted at `/`.
#[derive(Clone, Debug)]
pub struct Filesystem {
    inodes: Vec<Option<Inode>>,
    root: Ino,
    /// Bumped on every mutation (all of which funnel through
    /// [`Filesystem::inode_mut`] or [`Filesystem::alloc`]); lets
    /// callers cache resolution results and invalidate them exactly
    /// when the tree could have changed.
    generation: u64,
}

impl Filesystem {
    /// A filesystem containing only an empty root directory owned by root.
    pub fn new() -> Filesystem {
        let root = Inode {
            ino: 0,
            parent: 0,
            kind: InodeKind::Directory(BTreeMap::new()),
            mode: FileMode::DIR_DEFAULT,
            uid: Uid::ROOT,
            gid: Gid::WHEEL,
            nlink: 2,
        };
        Filesystem {
            inodes: vec![Some(root)],
            root: 0,
            generation: 0,
        }
    }

    /// The root directory's inode number.
    pub fn root(&self) -> Ino {
        self.root
    }

    /// Borrows an inode.
    pub fn inode(&self, ino: Ino) -> SysResult<&Inode> {
        self.inodes
            .get(ino as usize)
            .and_then(|slot| slot.as_ref())
            .ok_or(Errno::ESTALE)
    }

    fn inode_mut(&mut self, ino: Ino) -> SysResult<&mut Inode> {
        self.generation += 1;
        self.inodes
            .get_mut(ino as usize)
            .and_then(|slot| slot.as_mut())
            .ok_or(Errno::ESTALE)
    }

    /// The mutation counter: unchanged ⇒ every past resolution is
    /// still valid.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    fn alloc(&mut self, kind: InodeKind, mode: FileMode, cred: &Credentials) -> Ino {
        self.generation += 1;
        let ino = self.inodes.len() as Ino;
        self.inodes.push(Some(Inode {
            ino,
            parent: 0,
            kind,
            mode,
            uid: cred.euid,
            gid: cred.egid,
            nlink: 1,
        }));
        ino
    }

    fn dir_entries(&self, dir: Ino) -> SysResult<&BTreeMap<String, Ino>> {
        match &self.inode(dir)?.kind {
            InodeKind::Directory(entries) => Ok(entries),
            _ => Err(Errno::ENOTDIR),
        }
    }

    fn dir_entries_mut(&mut self, dir: Ino) -> SysResult<&mut BTreeMap<String, Ino>> {
        match &mut self.inode_mut(dir)?.kind {
            InodeKind::Directory(entries) => Ok(entries),
            _ => Err(Errno::ENOTDIR),
        }
    }

    /// Looks up one name in a directory. `..` in the root stays in the
    /// root; `.`/`..` are handled by the caller's path algebra otherwise.
    pub fn lookup(&self, dir: Ino, name: &str) -> SysResult<Ino> {
        self.dir_entries(dir)?
            .get(name)
            .copied()
            .ok_or(Errno::ENOENT)
    }

    /// Walks `components` from the directory `base`.
    ///
    /// Symbolic links are never followed here — each one is handed back
    /// to the caller via [`WalkOutcome::Symlink`], even in mid-path. If
    /// `cred` is given, search permission is checked on every directory.
    pub fn walk(
        &self,
        base: Ino,
        components: &[String],
        cred: Option<&Credentials>,
    ) -> SysResult<WalkOutcome> {
        let mut cur = base;
        for (i, comp) in components.iter().enumerate() {
            let node = self.inode(cur)?;
            let entries = match &node.kind {
                InodeKind::Directory(e) => e,
                InodeKind::Symlink(_) => unreachable!("symlinks returned before descent"),
                _ => return Err(Errno::ENOTDIR),
            };
            if let Some(c) = cred {
                if !node.mode.allows(c, node.uid, node.gid, Access::Exec) {
                    return Err(Errno::EACCES);
                }
            }
            let next = *entries.get(comp.as_str()).ok_or(Errno::ENOENT)?;
            let next_node = self.inode(next)?;
            if let InodeKind::Symlink(target) = &next_node.kind {
                return Ok(WalkOutcome::Symlink {
                    ino: next,
                    target: target.clone(),
                    remaining: components[i + 1..].to_vec(),
                });
            }
            cur = next;
        }
        Ok(WalkOutcome::Done(cur))
    }

    /// Creates a regular file in `dir`, failing if the name exists.
    pub fn create_file(
        &mut self,
        dir: Ino,
        name: &str,
        mode: FileMode,
        cred: &Credentials,
    ) -> SysResult<Ino> {
        self.create_node(dir, name, InodeKind::Regular(Rc::default()), mode, cred)
    }

    /// Creates a directory in `dir`.
    pub fn mkdir(
        &mut self,
        dir: Ino,
        name: &str,
        mode: FileMode,
        cred: &Credentials,
    ) -> SysResult<Ino> {
        self.create_node(dir, name, InodeKind::Directory(BTreeMap::new()), mode, cred)
    }

    /// Creates a symbolic link in `dir` whose contents are `target`.
    pub fn symlink(
        &mut self,
        dir: Ino,
        name: &str,
        target: &str,
        cred: &Credentials,
    ) -> SysResult<Ino> {
        self.create_node(
            dir,
            name,
            InodeKind::Symlink(target.to_string()),
            FileMode(0o777),
            cred,
        )
    }

    /// Creates a device node in `dir`.
    pub fn mknod(
        &mut self,
        dir: Ino,
        name: &str,
        device: DeviceId,
        cred: &Credentials,
    ) -> SysResult<Ino> {
        self.create_node(
            dir,
            name,
            InodeKind::Device(device),
            FileMode::DEV_DEFAULT,
            cred,
        )
    }

    fn create_node(
        &mut self,
        dir: Ino,
        name: &str,
        kind: InodeKind,
        mode: FileMode,
        cred: &Credentials,
    ) -> SysResult<Ino> {
        if name.is_empty() || name.contains('/') || name == "." || name == ".." {
            return Err(Errno::EINVAL);
        }
        {
            let d = self.inode(dir)?;
            if !d.is_dir() {
                return Err(Errno::ENOTDIR);
            }
            if !d.mode.allows(cred, d.uid, d.gid, Access::Write) {
                return Err(Errno::EACCES);
            }
        }
        if self.dir_entries(dir)?.contains_key(name) {
            return Err(Errno::EEXIST);
        }
        let is_dir = matches!(kind, InodeKind::Directory(_));
        let ino = self.alloc(kind, mode, cred);
        self.inode_mut(ino)?.parent = dir;
        self.dir_entries_mut(dir)?.insert(name.to_string(), ino);
        if is_dir {
            self.inode_mut(ino)?.nlink = 2;
            self.inode_mut(dir)?.nlink += 1;
        }
        Ok(ino)
    }

    /// Adds a hard link `name` in `dir` to an existing inode.
    pub fn link(&mut self, dir: Ino, name: &str, target: Ino, cred: &Credentials) -> SysResult<()> {
        let t = self.inode(target)?;
        if t.is_dir() {
            return Err(Errno::EISDIR);
        }
        {
            let d = self.inode(dir)?;
            if !d.mode.allows(cred, d.uid, d.gid, Access::Write) {
                return Err(Errno::EACCES);
            }
        }
        if self.dir_entries(dir)?.contains_key(name) {
            return Err(Errno::EEXIST);
        }
        self.dir_entries_mut(dir)?.insert(name.to_string(), target);
        self.inode_mut(target)?.nlink += 1;
        Ok(())
    }

    /// Removes the entry `name` from `dir`, freeing the inode when its
    /// link count reaches zero. Non-empty directories are refused.
    pub fn unlink(&mut self, dir: Ino, name: &str, cred: &Credentials) -> SysResult<()> {
        {
            let d = self.inode(dir)?;
            if !d.mode.allows(cred, d.uid, d.gid, Access::Write) {
                return Err(Errno::EACCES);
            }
        }
        let target = self.lookup(dir, name)?;
        let is_dir = {
            let t = self.inode(target)?;
            if let InodeKind::Directory(entries) = &t.kind {
                if !entries.is_empty() {
                    return Err(Errno::ENOTEMPTY);
                }
                true
            } else {
                false
            }
        };
        self.dir_entries_mut(dir)?.remove(name);
        let t = self.inode_mut(target)?;
        t.nlink = t.nlink.saturating_sub(if is_dir { 2 } else { 1 });
        if t.nlink == 0 || (is_dir && t.nlink <= 1) {
            self.inodes[target as usize] = None;
            if is_dir {
                self.inode_mut(dir)?.nlink -= 1;
            }
        }
        Ok(())
    }

    /// The parent of a directory (`..`); the root is its own parent.
    pub fn parent_of(&self, dir: Ino) -> SysResult<Ino> {
        let node = self.inode(dir)?;
        if !node.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        Ok(node.parent)
    }

    /// Lists a directory's entry names in order.
    pub fn readdir(&self, dir: Ino) -> SysResult<Vec<String>> {
        Ok(self.dir_entries(dir)?.keys().cloned().collect())
    }

    /// Reads a symbolic link's contents (`readlink(2)`).
    pub fn readlink(&self, ino: Ino) -> SysResult<String> {
        match &self.inode(ino)?.kind {
            InodeKind::Symlink(t) => Ok(t.clone()),
            _ => Err(Errno::EINVAL),
        }
    }

    /// Reads up to `len` bytes of a regular file from `offset`.
    pub fn read(&self, ino: Ino, offset: u64, len: usize) -> SysResult<Vec<u8>> {
        let data = self.contents(ino)?;
        let start = (offset as usize).min(data.len());
        let end = start.saturating_add(len).min(data.len());
        Ok(data[start..end].to_vec())
    }

    /// A regular file's whole contents: the file's own buffer, shared,
    /// not a copy. Later writes to the file leave it as it was.
    pub fn contents(&self, ino: Ino) -> SysResult<Rc<Vec<u8>>> {
        match &self.inode(ino)?.kind {
            InodeKind::Regular(data) => Ok(Rc::clone(data)),
            InodeKind::Directory(_) => Err(Errno::EISDIR),
            _ => Err(Errno::EINVAL),
        }
    }

    /// Writes bytes to a regular file at `offset`, zero-filling any gap,
    /// and returns the bytes written. Owned bytes written whole into an
    /// empty file become its contents without a copy. A write that would
    /// take the file past [`MAXFILESIZE`] fails `EFBIG` before anything
    /// is allocated.
    pub fn write<'b>(
        &mut self,
        ino: Ino,
        offset: u64,
        bytes: impl Into<Cow<'b, [u8]>>,
    ) -> SysResult<usize> {
        let bytes = bytes.into();
        match &mut self.inode_mut(ino)?.kind {
            InodeKind::Regular(data) => {
                let n = bytes.len();
                match offset.checked_add(n as u64) {
                    Some(end) if end <= MAXFILESIZE => {}
                    _ => return Err(Errno::EFBIG),
                }
                if offset == 0 && data.is_empty() {
                    *data = Rc::new(bytes.into_owned());
                    return Ok(n);
                }
                let data = Rc::make_mut(data);
                let start = offset as usize;
                if start > data.len() {
                    data.resize(start, 0);
                }
                let overlap = (data.len() - start).min(n);
                data[start..start + overlap].copy_from_slice(&bytes[..overlap]);
                data.extend_from_slice(&bytes[overlap..]);
                Ok(n)
            }
            InodeKind::Directory(_) => Err(Errno::EISDIR),
            _ => Err(Errno::EINVAL),
        }
    }

    /// Truncates a regular file to zero length (`O_TRUNC`). A reader
    /// still holding the old contents keeps them.
    pub fn truncate(&mut self, ino: Ino) -> SysResult<()> {
        match &mut self.inode_mut(ino)?.kind {
            InodeKind::Regular(data) => {
                *data = Rc::default();
                Ok(())
            }
            _ => Err(Errno::EINVAL),
        }
    }

    /// The length of a regular file.
    pub fn file_len(&self, ino: Ino) -> SysResult<u64> {
        match &self.inode(ino)?.kind {
            InodeKind::Regular(data) => Ok(data.len() as u64),
            _ => Ok(0),
        }
    }

    /// Number of live inodes (for tests and statistics).
    pub fn inode_count(&self) -> usize {
        self.inodes.iter().filter(|s| s.is_some()).count()
    }
}

impl Default for Filesystem {
    fn default() -> Self {
        Filesystem::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root_cred() -> Credentials {
        Credentials::root()
    }

    fn fixture() -> (Filesystem, Ino, Ino) {
        let mut fs = Filesystem::new();
        let cred = root_cred();
        let usr = fs
            .mkdir(fs.root(), "usr", FileMode::DIR_DEFAULT, &cred)
            .unwrap();
        let tmp = fs.mkdir(usr, "tmp", FileMode(0o777), &cred).unwrap();
        (fs, usr, tmp)
    }

    #[test]
    fn create_and_walk() {
        let (mut fs, _, tmp) = fixture();
        let f = fs
            .create_file(tmp, "a.out01234", FileMode::REG_DEFAULT, &root_cred())
            .unwrap();
        let out = fs
            .walk(
                fs.root(),
                &["usr".into(), "tmp".into(), "a.out01234".into()],
                None,
            )
            .unwrap();
        assert_eq!(out, WalkOutcome::Done(f));
    }

    #[test]
    fn missing_component_is_enoent() {
        let (fs, _, _) = fixture();
        assert_eq!(
            fs.walk(fs.root(), &["nope".into()], None),
            Err(Errno::ENOENT)
        );
    }

    #[test]
    fn file_in_the_middle_is_enotdir() {
        let (mut fs, usr, _) = fixture();
        fs.create_file(usr, "f", FileMode::REG_DEFAULT, &root_cred())
            .unwrap();
        assert_eq!(
            fs.walk(fs.root(), &["usr".into(), "f".into(), "x".into()], None),
            Err(Errno::ENOTDIR)
        );
    }

    #[test]
    fn walk_surfaces_symlinks_mid_path() {
        let (mut fs, usr, _) = fixture();
        fs.symlink(usr, "lnk", "/n/brador/usr", &root_cred())
            .unwrap();
        let out = fs
            .walk(fs.root(), &["usr".into(), "lnk".into(), "foo".into()], None)
            .unwrap();
        match out {
            WalkOutcome::Symlink {
                target, remaining, ..
            } => {
                assert_eq!(target, "/n/brador/usr");
                assert_eq!(remaining, vec!["foo".to_string()]);
            }
            other => panic!("expected symlink, got {other:?}"),
        }
    }

    #[test]
    fn read_write_with_offsets() {
        let (mut fs, _, tmp) = fixture();
        let f = fs
            .create_file(tmp, "data", FileMode::REG_DEFAULT, &root_cred())
            .unwrap();
        assert_eq!(fs.write(f, 0, b"hello").unwrap(), 5);
        assert_eq!(fs.write(f, 10, b"world").unwrap(), 5);
        assert_eq!(fs.file_len(f).unwrap(), 15);
        assert_eq!(fs.read(f, 0, 5).unwrap(), b"hello");
        assert_eq!(fs.read(f, 5, 5).unwrap(), vec![0; 5]); // Zero-filled gap.
        assert_eq!(fs.read(f, 10, 100).unwrap(), b"world"); // Short read at EOF.
        assert_eq!(fs.read(f, 100, 10).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn contents_are_shared_and_never_mutated_in_place() {
        let (mut fs, _, tmp) = fixture();
        let f = fs
            .create_file(tmp, "image", FileMode::REG_DEFAULT, &root_cred())
            .unwrap();
        let image = vec![7u8; 64];
        let at = image.as_ptr();
        assert_eq!(fs.write(f, 0, image).unwrap(), 64);
        let held = fs.contents(f).unwrap();
        assert_eq!(
            held.as_ptr(),
            at,
            "an owned write into an empty file moves in"
        );
        // Overwrite and append while a reader holds the contents: the
        // file changes, the reader's bytes do not.
        fs.write(f, 60, b"tail!").unwrap();
        assert_eq!(*held, vec![7u8; 64]);
        assert_eq!(fs.read(f, 58, 16).unwrap(), b"\x07\x07tail!");
        let again = fs.contents(f).unwrap();
        fs.truncate(f).unwrap();
        assert_eq!(again.len(), 65);
        assert_eq!(fs.file_len(f).unwrap(), 0);
        assert_eq!(fs.contents(tmp), Err(Errno::EISDIR));
    }

    #[test]
    fn writes_past_the_size_limit_fail_before_allocating() {
        let (mut fs, _, tmp) = fixture();
        let f = fs
            .create_file(tmp, "big", FileMode::REG_DEFAULT, &root_cred())
            .unwrap();
        fs.write(f, 0, b"abc").unwrap();
        assert_eq!(fs.write(f, MAXFILESIZE, b"x"), Err(Errno::EFBIG));
        assert_eq!(fs.write(f, MAXFILESIZE - 2, b"xyz"), Err(Errno::EFBIG));
        assert_eq!(fs.write(f, MAXFILESIZE + 1, b""), Err(Errno::EFBIG));
        // Offsets whose end overflows a u64 are refused too.
        assert_eq!(fs.write(f, u64::MAX, b"x"), Err(Errno::EFBIG));
        assert_eq!(fs.write(f, u64::MAX - 1, b"xyz"), Err(Errno::EFBIG));
        assert_eq!(fs.file_len(f).unwrap(), 3);
        // A write that ends exactly at the limit lands.
        assert_eq!(fs.write(f, MAXFILESIZE - 1, b"x"), Ok(1));
        assert_eq!(fs.file_len(f).unwrap(), MAXFILESIZE);
    }

    #[test]
    fn truncate_clears() {
        let (mut fs, _, tmp) = fixture();
        let f = fs
            .create_file(tmp, "t", FileMode::REG_DEFAULT, &root_cred())
            .unwrap();
        fs.write(f, 0, b"contents").unwrap();
        fs.truncate(f).unwrap();
        assert_eq!(fs.file_len(f).unwrap(), 0);
    }

    #[test]
    fn unlink_frees_at_zero_links() {
        let (mut fs, _, tmp) = fixture();
        let before = fs.inode_count();
        let f = fs
            .create_file(tmp, "x", FileMode::REG_DEFAULT, &root_cred())
            .unwrap();
        fs.link(tmp, "y", f, &root_cred()).unwrap();
        fs.unlink(tmp, "x", &root_cred()).unwrap();
        assert!(fs.inode(f).is_ok()); // Still linked as y.
        fs.unlink(tmp, "y", &root_cred()).unwrap();
        assert_eq!(fs.inode(f).unwrap_err(), Errno::ESTALE);
        assert_eq!(fs.inode_count(), before);
    }

    #[test]
    fn unlink_nonempty_dir_refused() {
        let (mut fs, usr, _) = fixture();
        assert_eq!(
            fs.unlink(fs.root(), "usr", &root_cred()),
            Err(Errno::ENOTEMPTY)
        );
        let _ = usr;
    }

    #[test]
    fn permissions_enforced_for_ordinary_users() {
        let (mut fs, usr, _) = fixture();
        let alice = Credentials::user(Uid(100), Gid(10));
        // usr is 0755 root-owned: alice cannot create there.
        assert_eq!(
            fs.create_file(usr, "mine", FileMode::REG_DEFAULT, &alice),
            Err(Errno::EACCES)
        );
        // But /usr/tmp is 0777.
        let tmp = fs.lookup(usr, "tmp").unwrap();
        assert!(fs
            .create_file(tmp, "mine", FileMode::REG_DEFAULT, &alice)
            .is_ok());
    }

    #[test]
    fn walk_checks_search_permission() {
        let (mut fs, _, _) = fixture();
        let cred = root_cred();
        let secret = fs
            .mkdir(fs.root(), "secret", FileMode(0o700), &cred)
            .unwrap();
        fs.create_file(secret, "f", FileMode::REG_DEFAULT, &cred)
            .unwrap();
        let alice = Credentials::user(Uid(100), Gid(10));
        assert_eq!(
            fs.walk(fs.root(), &["secret".into(), "f".into()], Some(&alice)),
            Err(Errno::EACCES)
        );
        assert!(fs
            .walk(fs.root(), &["secret".into(), "f".into()], Some(&cred))
            .is_ok());
    }

    #[test]
    fn devices_and_readlink() {
        let (mut fs, _, _) = fixture();
        let cred = root_cred();
        let dev = fs
            .mkdir(fs.root(), "dev", FileMode::DIR_DEFAULT, &cred)
            .unwrap();
        let null = fs.mknod(dev, "null", DeviceId::Null, &cred).unwrap();
        assert!(matches!(
            fs.inode(null).unwrap().kind,
            InodeKind::Device(DeviceId::Null)
        ));
        assert_eq!(fs.readlink(null), Err(Errno::EINVAL));
        let lnk = fs.symlink(dev, "tty0link", "/dev/tty0", &cred).unwrap();
        assert_eq!(fs.readlink(lnk).unwrap(), "/dev/tty0");
    }

    #[test]
    fn duplicate_names_rejected() {
        let (mut fs, _, tmp) = fixture();
        fs.create_file(tmp, "x", FileMode::REG_DEFAULT, &root_cred())
            .unwrap();
        assert_eq!(
            fs.create_file(tmp, "x", FileMode::REG_DEFAULT, &root_cred()),
            Err(Errno::EEXIST)
        );
    }

    #[test]
    fn bad_names_rejected() {
        let (mut fs, _, tmp) = fixture();
        for bad in ["", ".", "..", "a/b"] {
            assert_eq!(
                fs.create_file(tmp, bad, FileMode::REG_DEFAULT, &root_cred()),
                Err(Errno::EINVAL),
                "name {bad:?}"
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use simtime::rng::SplitMix64;

    /// Writing at arbitrary offsets then reading back returns exactly
    /// what was written, with zero fill in the gaps: 64 cases of zero
    /// to fifteen writes, each of up to 63 bytes at an offset below
    /// 2048, half of them handed over owned. Contents taken between
    /// writes keep the bytes they had when taken.
    #[test]
    fn write_read_round_trip() {
        let mut rng = SplitMix64::new(1);
        for case in 0..64 {
            let writes: Vec<(u64, Vec<u8>)> = (0..rng.below(16))
                .map(|_| (rng.below(2048), rng.bytes(0..64)))
                .collect();
            let mut fs = Filesystem::new();
            let cred = Credentials::root();
            let f = fs
                .create_file(fs.root(), "f", FileMode::REG_DEFAULT, &cred)
                .unwrap();
            let mut model: Vec<u8> = Vec::new();
            let mut held = Vec::new();
            for (off, bytes) in &writes {
                if rng.below(2) == 0 {
                    fs.write(f, *off, bytes).unwrap();
                } else {
                    fs.write(f, *off, bytes.clone()).unwrap();
                }
                let start = *off as usize;
                if start > model.len() {
                    model.resize(start, 0);
                }
                let end = start + bytes.len();
                if end > model.len() {
                    model.resize(end, 0);
                }
                model[start..end].copy_from_slice(bytes);
                if rng.below(3) == 0 {
                    held.push((fs.contents(f).unwrap(), model.clone()));
                }
            }
            let len = fs.file_len(f).unwrap() as usize;
            assert_eq!(len, model.len(), "case {case}: {writes:?}");
            let got = fs.read(f, 0, model.len() + 16).unwrap();
            assert_eq!(got, model, "case {case}: {writes:?}");
            for (contents, then) in &held {
                assert_eq!(**contents, *then, "case {case}: {writes:?}");
            }
        }
    }
}
