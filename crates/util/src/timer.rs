//! Driver-neutral timer identities for sans-io state machines.
//!
//! A sans-io stack cannot own a clock or an event queue, so "arm a timer"
//! becomes an *arm* effect carrying a [`TimerKey`] and a relative
//! deadline. The driver schedules it however it likes (kernel timing
//! wheel, a heap polled by an event loop, ...) and later feeds the bare
//! key back in.
//!
//! A key names its own purpose: the layer that armed it and what for, so
//! the stack keeps no table of armed keys and cancels nothing. Every
//! firing is a hint: the owner compares a deadline it already stores with
//! the clock and does nothing unless that deadline has come. A key that
//! was superseded, or fired twice, finds nothing due.

/// What one armed timer is for.
///
/// `ns` says which layer armed it (overlay, FUSE, application); `kind` and
/// `arg` are the layer's own tag, such as "ping this peer" or "this
/// group's repair round", encoded by the stack that owns the namespaces.
/// Keys are plain data — `Ord` so drivers can keep them in heaps, `Hash`
/// for maps — and two arms of one purpose carry equal keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerKey {
    /// Which layer's timer this is.
    pub ns: u8,
    /// Which of the layer's timers.
    pub kind: u8,
    /// Its subject: a peer, a group, or an application tag.
    pub arg: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_key_stays_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<TimerKey>(), 16);
    }
}
