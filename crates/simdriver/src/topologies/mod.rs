//! Alternative liveness-checking topologies (paper §5.1).
//!
//! The default FUSE implementation shares overlay maintenance pings across
//! all groups. The paper discusses three alternatives trading scalability
//! for security, all implemented here against the same notifier semantics:
//!
//! * [`alltoall`] — per-group all-to-all pinging: n² messages per group and
//!   period, robust to dropped-notification attacks from members, worst-case
//!   notification latency ≤ 2 ping intervals (this is also the reference
//!   implementation sketched in §3).
//! * [`direct`] — per-group spanning trees *without* an overlay (a star
//!   rooted at the creator): no delegates to attack, liveness cost additive
//!   in the number of groups modulo member-pair sharing.
//! * [`central`] — every client heartbeats one central server, which
//!   sweeps for clients gone quiet: one point of trust, minimal per-member
//!   load, limited scalability.

pub mod alltoall;
pub mod central;
pub mod direct;
