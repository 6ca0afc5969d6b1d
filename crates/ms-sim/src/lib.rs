//! The simulation substrate: a deterministic discrete-event kernel
//! and the cost models of network, storage and cluster that stand in
//! for the paper's testbed.
//!
//! The reproduction replaces the paper's 56-node EC2 deployment with a
//! discrete-event simulation (see DESIGN.md §2):
//!
//! * the kernel — a virtual-time [`EventQueue`], a seeded, forkable
//!   random stream ([`rng::DetRng`]), and a tiny dispatch loop ([`run`]);
//! * [`net`] — NICs, latency and in-order, fail-stop channels;
//! * [`storage`] — shared storage and local disks, the checkpoint
//!   store and the tuple-preservation buffers;
//! * [`cluster`] — nodes, racks, HAU placement and Table I's failure
//!   model.
//!
//! The runtime schedules every event here, so a whole experiment is a
//! pure function of `(configuration, seed)` — run it twice, get
//! identical results.

#![warn(missing_docs)]

pub mod cluster;
pub mod net;
pub mod queue;
pub mod rng;
pub mod storage;

// Building blocks of `storage` and `cluster`, reachable only through
// those two modules' re-exports.
mod checkpoint;
mod device;
mod failure;
mod placement;
mod preserve;

pub use queue::EventQueue;
pub use rng::DetRng;

use ms_core::time::SimTime;

/// A simulation world: owns all mutable component state and interprets
/// events. The kernel stays generic over the event type so substrate
/// crates can be tested with their own small event enums.
pub trait World {
    /// The event alphabet of this world.
    type Event;

    /// Handles one event at virtual time `now`. New events are
    /// scheduled onto `queue`; scheduling in the past is a bug and
    /// panics in debug builds.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// Drains the queue until it is empty or virtual time would exceed
/// `until`; returns the number of events dispatched. Events scheduled
/// exactly at `until` are processed.
pub fn run<W: World>(world: &mut W, queue: &mut EventQueue<W::Event>, until: SimTime) -> u64 {
    let mut dispatched = 0;
    while let Some(t) = queue.peek_time() {
        if t > until {
            break;
        }
        let (now, event) = queue.pop().expect("peeked entry must pop");
        world.handle(now, event, queue);
        dispatched += 1;
    }
    queue.advance_to(until);
    dispatched
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_core::time::SimDuration;

    struct Counter {
        fired: Vec<(SimTime, u32)>,
        respawn: bool,
    }

    impl World for Counter {
        type Event = u32;
        fn handle(&mut self, now: SimTime, e: u32, q: &mut EventQueue<u32>) {
            self.fired.push((now, e));
            if self.respawn && e < 3 {
                q.schedule_in(SimDuration::from_secs(1), e + 1);
            }
        }
    }

    #[test]
    fn run_dispatches_in_time_order_and_respects_bound() {
        let mut w = Counter {
            fired: vec![],
            respawn: false,
        };
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), 5);
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(3), 3);
        q.schedule(SimTime::from_secs(30), 30);
        let n = run(&mut w, &mut q, SimTime::from_secs(10));
        assert_eq!(n, 3);
        assert_eq!(
            w.fired.iter().map(|&(_, e)| e).collect::<Vec<_>>(),
            vec![1, 3, 5]
        );
        // The bound advances the clock even when no event sits there.
        assert_eq!(q.now(), SimTime::from_secs(10));
        // The out-of-window event is still queued.
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn handlers_can_schedule_follow_ups() {
        let mut w = Counter {
            fired: vec![],
            respawn: true,
        };
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(0), 0);
        run(&mut w, &mut q, SimTime::from_secs(100));
        assert_eq!(w.fired.len(), 4);
        assert_eq!(w.fired[3].0, SimTime::from_secs(3));
    }
}
