//! Events: the nodes of a candidate execution.

use lkmm_litmus::FenceKind;
use std::fmt;

/// Index of a shared location in an execution's location table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocId(pub usize);

/// A runtime value: an integer or a pointer to a shared location.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Val {
    /// Plain integer.
    Int(i64),
    /// Address of a shared location.
    Loc(LocId),
}

impl Val {
    /// The integer payload, treating pointers as distinct non-zero values.
    ///
    /// Used for truthiness in conditionals: pointers are "true".
    pub fn truthy(self) -> bool {
        match self {
            Val::Int(i) => i != 0,
            Val::Loc(_) => true,
        }
    }

    /// The integer, if this is one.
    pub fn as_int(self) -> Option<i64> {
        match self {
            Val::Int(i) => Some(i),
            Val::Loc(_) => None,
        }
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Int(i) => write!(f, "{i}"),
            Val::Loc(l) => write!(f, "&loc{}", l.0),
        }
    }
}

/// Annotation of a read event (Table 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReadAnnot {
    /// `READ_ONCE` — `R[once]`.
    Once,
    /// `smp_load_acquire` — `R[acquire]`.
    Acquire,
}

/// Annotation of a write event (Table 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WriteAnnot {
    /// `WRITE_ONCE` — `W[once]`.
    Once,
    /// `smp_store_release` — `W[release]`.
    Release,
}

/// The payload of an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A read of `loc` returning `val`.
    Read { loc: LocId, val: Val, annot: ReadAnnot },
    /// A write of `val` to `loc`. `is_init` marks the implicit initialising
    /// write (herd's `IW` set); initialising writes belong to no thread.
    Write { loc: LocId, val: Val, annot: WriteAnnot, is_init: bool },
    /// A fence (including the RCU pseudo-fences of Table 4).
    Fence(FenceKind),
    /// An SRCU marker: lock/unlock of, or a grace period of, the SRCU
    /// domain named by `domain`. Grace periods of different domains are
    /// independent.
    Srcu { kind: SrcuKind, domain: LocId },
}

impl EventKind {
    /// The location accessed, if this is a memory access.
    pub fn loc(self) -> Option<LocId> {
        match self {
            EventKind::Read { loc, .. } | EventKind::Write { loc, .. } => Some(loc),
            EventKind::Fence(_) | EventKind::Srcu { .. } => None,
        }
    }
}

/// The three SRCU primitives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SrcuKind {
    Lock,
    Unlock,
    Sync,
}

/// One node of a candidate execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Event {
    /// Dense id, the index into [`crate::Execution::events`].
    pub id: usize,
    /// Owning thread; `None` for initialising writes.
    pub thread: Option<usize>,
    /// What the event does.
    pub kind: EventKind,
}

impl Event {
    /// Whether this is a read.
    pub fn is_read(&self) -> bool {
        matches!(self.kind, EventKind::Read { .. })
    }

    /// Whether this is a write (including initialising writes).
    pub fn is_write(&self) -> bool {
        matches!(self.kind, EventKind::Write { .. })
    }

    /// Whether this is the implicit initialising write of a location.
    pub fn is_init(&self) -> bool {
        matches!(self.kind, EventKind::Write { is_init: true, .. })
    }

    /// Whether this is a memory access (read or write).
    pub fn is_mem(&self) -> bool {
        self.is_read() || self.is_write()
    }

    /// Whether this is a fence of the given kind.
    pub fn is_fence(&self, kind: FenceKind) -> bool {
        self.kind == EventKind::Fence(kind)
    }

    /// The location accessed, if this is a memory access.
    pub fn loc(&self) -> Option<LocId> {
        self.kind.loc()
    }

    /// The value read or written, if this is a memory access.
    pub fn val(&self) -> Option<Val> {
        match self.kind {
            EventKind::Read { val, .. } | EventKind::Write { val, .. } => Some(val),
            EventKind::Fence(_) | EventKind::Srcu { .. } => None,
        }
    }

    /// The SRCU marker, if this is one.
    pub fn srcu(&self) -> Option<(SrcuKind, LocId)> {
        match self.kind {
            EventKind::Srcu { kind, domain } => Some((kind, domain)),
            _ => None,
        }
    }

    /// Whether the event is an acquire read.
    pub fn is_acquire(&self) -> bool {
        matches!(self.kind, EventKind::Read { annot: ReadAnnot::Acquire, .. })
    }

    /// Whether the event is a release write.
    pub fn is_release(&self) -> bool {
        matches!(self.kind, EventKind::Write { annot: WriteAnnot::Release, .. })
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tid = match self.thread {
            Some(t) => format!("P{t}"),
            None => "init".to_string(),
        };
        match self.kind {
            EventKind::Read { loc, val, annot } => {
                let a = match annot {
                    ReadAnnot::Once => "once",
                    ReadAnnot::Acquire => "acquire",
                };
                write!(f, "e{}:{tid}:R[{a}] loc{}={val}", self.id, loc.0)
            }
            EventKind::Write { loc, val, annot, is_init } => {
                let a = if is_init {
                    "init"
                } else {
                    match annot {
                        WriteAnnot::Once => "once",
                        WriteAnnot::Release => "release",
                    }
                };
                write!(f, "e{}:{tid}:W[{a}] loc{}={val}", self.id, loc.0)
            }
            EventKind::Fence(k) => write!(f, "e{}:{tid}:F[{}]", self.id, k.as_primitive()),
            EventKind::Srcu { kind, domain } => {
                let k = match kind {
                    SrcuKind::Lock => "srcu-lock",
                    SrcuKind::Unlock => "srcu-unlock",
                    SrcuKind::Sync => "sync-srcu",
                };
                write!(f, "e{}:{tid}:F[{k}(loc{})]", self.id, domain.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(id: usize) -> Event {
        Event {
            id,
            thread: Some(0),
            kind: EventKind::Read { loc: LocId(0), val: Val::Int(1), annot: ReadAnnot::Once },
        }
    }

    #[test]
    fn predicates() {
        let r = read(0);
        assert!(r.is_read() && r.is_mem() && !r.is_write() && !r.is_init());
        assert_eq!(r.loc(), Some(LocId(0)));
        assert_eq!(r.val(), Some(Val::Int(1)));
        let f = Event { id: 1, thread: Some(0), kind: EventKind::Fence(FenceKind::Mb) };
        assert!(f.is_fence(FenceKind::Mb) && !f.is_fence(FenceKind::Rmb) && !f.is_mem());
        assert_eq!(f.loc(), None);
    }

    #[test]
    fn truthiness() {
        assert!(!Val::Int(0).truthy());
        assert!(Val::Int(-3).truthy());
        assert!(Val::Loc(LocId(2)).truthy());
        assert_eq!(Val::Loc(LocId(2)).as_int(), None);
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(read(0).to_string(), "e0:P0:R[once] loc0=1");
    }
}
