//! Event and topic types for the federated channel.
//!
//! The paper's middleware rides on TAO's real-time event service: suppliers
//! push typed events ("Task Arrive", "Accept", "Trigger", "Idle
//! Resetting") through local event channels, and gateways federate them to
//! consumers on other processors. This module models the unit being moved:
//! an opaque payload tagged with a [`Topic`] and its source node.

use std::fmt;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// A node in the federation — one "processor" in the paper's architecture
/// (application processors plus the task manager).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Dense index of this node.
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// An event type tag. Consumers subscribe per topic; gateways forward per
/// topic.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Topic(pub u32);

impl fmt::Display for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "topic{}", self.0)
    }
}

/// Well-known topics of the middleware (matching the ports in Figure 3).
pub mod topics {
    use super::Topic;

    /// TE → AC: a task arrived and is being held.
    pub const TASK_ARRIVE: Topic = Topic(1);
    /// AC → TE: release the held task.
    pub const ACCEPT: Topic = Topic(2);
    /// AC → TE: drop the held task.
    pub const REJECT: Topic = Topic(3);
    /// F/I subtask → next subtask: start the next stage.
    pub const TRIGGER: Topic = Topic(4);
    /// IR → AC: completed subjobs whose contributions can be removed.
    pub const IDLE_RESET: Topic = Topic(5);
    /// AC → all nodes: a live reconfiguration phase (prepare / commit /
    /// abort of a `ServiceConfig` swap). Bridging this topic through a TCP
    /// gateway propagates mode changes to remote hosts.
    pub const RECONFIG: Topic = Topic(6);
    /// Node → AC: acknowledgement that the node fenced its local fast
    /// paths for a pending reconfiguration epoch.
    pub const RECONFIG_ACK: Topic = Topic(7);

    /// Base of the reserved per-node control range (`0x4000_0000..`):
    /// topics the runtime mints so launcher→node control traffic (injected
    /// arrivals, wake-up kicks) rides the same federated channel — and the
    /// same fast path — as every middleware event. Application topics
    /// should stay below this range.
    pub const CONTROL_BASE: u32 = 0x4000_0000;

    /// Launcher → TE of `processor`: an injected arrival
    /// (`rtcm_rt::proto::InjectMsg`).
    #[must_use]
    pub const fn inject(processor: u16) -> Topic {
        Topic(CONTROL_BASE | processor as u32)
    }

    /// Launcher → task manager: a control request (a swap, a governor
    /// attach or detach, shutdown) was enqueued on the manager's
    /// out-of-band channel — wake its mailbox (payload ignored). Lets the
    /// manager park on one wait point instead of polling that channel.
    pub const MANAGER_WAKE: Topic = Topic(CONTROL_BASE | 0x0200_0000);

    /// Owner → quorum-member delegate: its stop flag was set — wake its
    /// mailbox (payload ignored; the delegate reads the flag in `settle`,
    /// after every wake). Lets it park on one wait point (fence deadline or
    /// reconfiguration traffic) instead of polling the flag.
    pub const QUORUM_CTL: Topic = Topic(CONTROL_BASE | 0x0300_0000);
}

/// One event in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// The event type tag.
    pub topic: Topic,
    /// The publishing node.
    pub source: NodeId,
    /// Serialized payload (the runtime uses `rtcm_rt::proto`'s binary
    /// layout; the channel does not interpret it).
    pub payload: Bytes,
}

impl Event {
    /// Creates an event.
    #[must_use]
    pub fn new(topic: Topic, source: NodeId, payload: impl Into<Bytes>) -> Self {
        Event { topic, source, payload: payload.into() }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} from {} ({} bytes)", self.topic, self.source, self.payload.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_construction_and_display() {
        let e = Event::new(topics::TASK_ARRIVE, NodeId(3), vec![1, 2, 3]);
        assert_eq!(e.topic, Topic(1));
        assert_eq!(e.source, NodeId(3));
        assert_eq!(e.payload.as_ref(), &[1, 2, 3]);
        assert_eq!(e.to_string(), "topic1 from N3 (3 bytes)");
    }

    #[test]
    fn well_known_topics_are_distinct() {
        let all = [
            topics::TASK_ARRIVE,
            topics::ACCEPT,
            topics::REJECT,
            topics::TRIGGER,
            topics::IDLE_RESET,
            topics::RECONFIG,
            topics::RECONFIG_ACK,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
