//! The crash-safe frame log that the verdict store ([`crate::store`])
//! and the campaign checkpoint (`lkmm_conformance::checkpoint`) both
//! write: one format, one scan, one recovery.
//!
//! ## Format
//!
//! ```text
//! file  := magic frame*
//! magic := 8 bytes naming the log kind     (Format::magic)
//! frame := len:u32le checksum:u64le payload
//! ```
//!
//! `len` is the payload length and `checksum` is FNV-1a-64 of the
//! payload; what a payload holds is the log's business (see
//! [`FrameLog::open`]'s `parse`). Each frame is appended with a single
//! `write_all`, so a crash can only tear the *last* frame.
//!
//! ## Recovery
//!
//! [`Format::scan`] reads the frames from the start and stops at the
//! first bad one, telling two defects apart:
//!
//! * a **torn tail** — the final frame is an incomplete prefix (fewer
//!   bytes on disk than its header promises, or not even a whole
//!   header). This is the expected artifact of a crash mid-append.
//! * a **corrupt frame** — a frame that is fully present but carries a
//!   length over the log's cap, fails its checksum, or does not parse.
//!   An append crash cannot produce one: the bytes rotted or were
//!   overwritten. The frame and everything after it (frame boundaries
//!   past it cannot be trusted) are dropped, and counted apart so
//!   operators can tell rot from crashes.
//!
//! [`FrameLog::open`] cuts the file back to that valid prefix before
//! anything is appended, so a new frame never lands after a tear. A file
//! that does not start with the magic is handled by the log's
//! [`WrongMagic`] policy. The first [`FrameLog::sync`] of a log's
//! lifetime also fsyncs its directory, so a crash cannot lose the
//! just-created file itself.

use crate::hash::fnv64;
use lkmm_core::faultpoint;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Frame header: `len: u32le` + `checksum: u64le`.
pub(crate) const HEADER_LEN: usize = 12;

/// One kind of frame log: how its files start, how big a frame may be,
/// what happens to a file that is not one, and where its fault points
/// sit.
pub struct Format {
    /// The file's first 8 bytes.
    pub magic: &'static [u8; 8],
    /// A length field above this is corruption, not a big frame.
    pub max_len: u32,
    /// What [`FrameLog::open`] does with a file whose magic is wrong.
    pub wrong_magic: WrongMagic,
    /// Fault point that tears an append halfway (half the frame reaches
    /// the file and the append fails), as a crash mid-append would.
    pub torn_fault: &'static str,
    /// Fault point on the first directory sync, if the log has one.
    pub dir_sync_fault: Option<&'static str>,
}

/// What opening a log does with a file that does not start with the
/// log's magic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WrongMagic {
    /// Move the file aside to [`quarantine_path`], never deleting what
    /// may be someone's data, and start a fresh log in its place.
    Quarantine,
    /// Start the log over in place.
    StartOver,
}

/// What a scan of a whole log file found.
#[derive(Debug)]
pub struct Scan<T> {
    /// The valid frames' payloads, parsed, in log order.
    pub frames: Vec<T>,
    /// Length of the file scanned.
    pub len: u64,
    /// Offset just past the last valid frame (0 when the file is empty
    /// or its magic is wrong).
    pub end: u64,
    /// Bytes of an incomplete final frame.
    pub torn_bytes: u64,
    /// Complete but invalid frames (the scan stops at the first).
    pub corrupt_frames: usize,
    /// Bytes of the corrupt frame and of everything after it.
    pub corrupt_bytes: u64,
    /// The file is not empty and does not start with the magic: none of
    /// it was scanned.
    pub wrong_magic: bool,
}

impl<T> Scan<T> {
    /// Bytes past the last valid frame, whatever the reason: a torn or
    /// corrupt tail, or the whole of a wrong-magic file.
    pub fn dropped_bytes(&self) -> u64 {
        self.len - self.end
    }
}

impl Format {
    /// Scan `bytes`, a whole log file: check the magic, then read frames
    /// up to the first torn or corrupt one, handing each payload whose
    /// checksum holds to `parse` (`None` makes the frame corrupt).
    pub fn scan<T>(&self, bytes: &[u8], mut parse: impl FnMut(&[u8]) -> Option<T>) -> Scan<T> {
        let mut scan = Scan {
            frames: Vec::new(),
            len: bytes.len() as u64,
            end: 0,
            torn_bytes: 0,
            corrupt_frames: 0,
            corrupt_bytes: 0,
            wrong_magic: false,
        };
        if bytes.is_empty() {
            return scan;
        }
        if !bytes.starts_with(self.magic) {
            scan.wrong_magic = true;
            return scan;
        }
        let mut at = self.magic.len();
        while at < bytes.len() {
            let rest = &bytes[at..];
            // A header needs 12 bytes; fewer on disk is a torn append.
            let Some(header) = rest.get(..HEADER_LEN) else {
                scan.torn_bytes = rest.len() as u64;
                break;
            };
            let len = u32::from_le_bytes(header[0..4].try_into().expect("a 4-byte slice"));
            if len > self.max_len {
                // A crash truncates; it does not invent a wild length.
                scan.corrupt_frames = 1;
                scan.corrupt_bytes = rest.len() as u64;
                break;
            }
            let checksum = u64::from_le_bytes(header[4..12].try_into().expect("an 8-byte slice"));
            let Some(payload) = rest.get(HEADER_LEN..HEADER_LEN + len as usize) else {
                // Header complete, payload short: torn mid-payload.
                scan.torn_bytes = rest.len() as u64;
                break;
            };
            // A payload that fails its checksum is rot; one that holds its
            // checksum but does not parse is a writer bug, or rot that
            // happened to keep the checksum.
            let frame = if fnv64(payload) == checksum { parse(payload) } else { None };
            let Some(frame) = frame else {
                scan.corrupt_frames = 1;
                scan.corrupt_bytes = rest.len() as u64;
                break;
            };
            scan.frames.push(frame);
            at += HEADER_LEN + len as usize;
        }
        scan.end = at as u64;
        scan
    }

    /// Move the wrong-magic log at `path` aside to [`quarantine_path`]
    /// and lay down a fresh one holding only the magic. The directory is
    /// fsynced: the rename and the fresh file must both survive a crash.
    pub(crate) fn quarantine(&self, path: &Path) -> io::Result<File> {
        fs::rename(path, quarantine_path(path))?;
        let mut file = OpenOptions::new().write(true).create(true).truncate(true).open(path)?;
        file.write_all(self.magic)?;
        fsync_dir(path)?;
        Ok(file)
    }
}

/// Append the frame holding `payload` to `out`.
pub(crate) fn encode(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv64(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Where a wrong-magic log at `path` is moved: `<path>.corrupt`.
pub fn quarantine_path(path: &Path) -> PathBuf {
    sibling(path, ".corrupt")
}

/// `<dir>/<name><suffix>` — unlike `with_extension`, never eats part of
/// the log's own file name.
pub(crate) fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(suffix);
    path.with_file_name(name)
}

/// `fsync` the directory holding `path`, making renames and the file's
/// own directory entry durable. (POSIX: `fsync(file)` alone does not
/// persist the *entry*; a crash right after can yield an empty
/// directory.)
pub(crate) fn fsync_dir(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()
}

/// A frame log open for appending.
pub struct FrameLog {
    format: &'static Format,
    path: PathBuf,
    pub(crate) file: File,
    /// Offset just past the last frame written whole.
    end: u64,
    /// An append failed partway: the file may hold a torn tail past
    /// `end` that must be cut back before the next append.
    pub(crate) dirty_tail: bool,
    /// Whether the directory has been fsynced since open.
    dir_synced: bool,
}

impl FrameLog {
    /// Open (creating) the log at `path` for appending and recover it:
    /// scan its frames with `parse`, cut a torn or corrupt tail off, and
    /// append after the last valid frame. An empty file gets the magic;
    /// one whose magic is wrong is dealt with as `format.wrong_magic`
    /// says. The scan describes the file as it was found.
    ///
    /// # Errors
    ///
    /// I/O errors opening, reading, truncating or quarantining the file.
    pub fn open<T>(
        path: &Path,
        format: &'static Format,
        parse: impl FnMut(&[u8]) -> Option<T>,
    ) -> io::Result<(FrameLog, Scan<T>)> {
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let scan = format.scan(&bytes, parse);
        if scan.wrong_magic {
            match format.wrong_magic {
                WrongMagic::Quarantine => {
                    drop(file);
                    file = format.quarantine(path)?;
                }
                WrongMagic::StartOver => {
                    file.set_len(0)?;
                    file.seek(SeekFrom::Start(0))?;
                    file.write_all(format.magic)?;
                }
            }
        } else if bytes.is_empty() {
            file.write_all(format.magic)?;
        } else if scan.dropped_bytes() > 0 {
            file.set_len(scan.end)?;
        }
        let end = scan.end.max(format.magic.len() as u64);
        file.seek(SeekFrom::Start(end))?;
        let path = path.to_path_buf();
        Ok((FrameLog { format, path, file, end, dirty_tail: false, dir_synced: false }, scan))
    }

    /// The log's file.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Append the frame holding `payload`. A failed append is safe to
    /// retry: the next one first cuts back whatever it left past the
    /// last whole frame. (A crash instead of a retry leaves the tear for
    /// the next open to cut.)
    ///
    /// # Errors
    ///
    /// I/O errors cutting or writing, including the one injected at
    /// `format.torn_fault`.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        if self.dirty_tail {
            self.file.set_len(self.end)?;
            self.file.seek(SeekFrom::Start(self.end))?;
            self.dirty_tail = false;
        }
        let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
        encode(&mut frame, payload);
        let torn = self.format.torn_fault;
        if faultpoint::should_fail(torn) {
            // Simulated torn append: half the frame reaches the file
            // before the "crash", exactly what recovery truncates.
            self.dirty_tail = true;
            self.file.write_all(&frame[..frame.len() / 2])?;
            return Err(io::Error::other(format!("faultpoint: injected I/O error at `{torn}`")));
        }
        if let Err(e) = self.file.write_all(&frame) {
            self.dirty_tail = true;
            return Err(e);
        }
        self.end += frame.len() as u64;
        Ok(())
    }

    /// Force appended frames to stable storage: `fsync` the file and —
    /// the first time — its directory, so a crash cannot lose the
    /// directory entry of a just-created log.
    ///
    /// # Errors
    ///
    /// I/O errors from either sync, including the one injected at
    /// `format.dir_sync_fault` (the directory sync is then retried by
    /// the next call).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        if !self.dir_synced {
            if let Some(site) = self.format.dir_sync_fault {
                faultpoint::inject_io(site)?;
            }
            fsync_dir(&self.path)?;
            self.dir_synced = true;
        }
        Ok(())
    }
}
