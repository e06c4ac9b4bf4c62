//! The federated event channel: per-node local channels, gateway
//! forwarding, and a latency-injecting in-process network.
//!
//! This substitutes for TAO's federated real-time event service (§3): each
//! node has a local channel delivering synchronously to its own consumers;
//! publications whose topic has consumers on *other* nodes are forwarded
//! through the network, which injects a configurable one-way [`Latency`]
//! before delivery — making communication delay a first-class, measurable
//! quantity exactly where the paper's Figure 8 measures it (op 2).
//!
//! Subscription propagation is modeled with a shared topic→nodes registry
//! instead of TAO's gateway handshake protocol; the observable behavior —
//! events reach exactly the nodes with matching consumers, after one
//! network delay — is the same.
//!
//! # The event fast path
//!
//! Publishing is engineered as a read-mostly fast path (see DESIGN.md
//! "Event fast path"):
//!
//! * **Snapshot routing (RCU).** Subscriptions build an immutable
//!   `RouteTable` — per `(node, topic)`, the local mailboxes plus the
//!   precomputed remote destination list — and swap it in under a
//!   write lock while bumping a generation counter. Publishers never
//!   mutate shared routing state.
//! * **Per-handle route cache.** Each [`ChannelHandle`] caches the route
//!   of the last topic it published, validated by a single atomic
//!   generation load — repeat publishes on one topic skip the table and
//!   its lock entirely.
//! * **One queue per receiver.** Every subscription — `subscribe(topic)`
//!   is `subscribe_many(&[topic])` — owns one mailbox
//!   ([`crate::fanout`]): a publish is one lock + one push per local
//!   receiver, and every receiver observes the same [`bytes::Bytes`]
//!   payload allocation.
//! * **Single-lock parcels.** Remote destinations are sequenced,
//!   latency-sampled and handed to the network under **one** `net` lock
//!   acquisition per publish: its inbox lives behind that same lock.
//! * **One executor.** A federation's [`Network`] lands the due parcels
//!   and steps the [`Consumer`]s hosted on it ([`Federation::host`]), one
//!   move at a time ([`Network::advance`]): on the wall clock on the one
//!   thread [`Federation::spawn`] starts (a [`Federation::new`] starts
//!   it), or on a [`Federation::stepped`] caller's clock. That thread
//!   waits on one bell; a parcel always rings it, a local delivery only
//!   in a federation that hosts a consumer.
//!
//! Determinism contract: for a fixed seed, a fixed subscription set and a
//! single publishing thread, delivery order and the sampled parcel
//! latencies are identical run to run — destinations are walked in
//! ascending node order, and the jitter RNG is consumed once per remote
//! destination in exactly that order.
//!
//! # Examples
//!
//! ```
//! use rtcm_events::{Event, Federation, Latency, NodeId, Topic};
//!
//! let fed = Federation::new(2, Latency::None, 0);
//! let consumer = fed.handle(NodeId(1))?.subscribe(Topic(7));
//! fed.handle(NodeId(0))?.publish(Topic(7), &b"hello"[..]);
//!
//! let event = consumer.recv_timeout(std::time::Duration::from_secs(1))?;
//! assert_eq!(event.source, NodeId(0));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::time::{Duration as StdDuration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::event::{Event, NodeId, Topic};
use crate::fanout::{EventReceiver, FanoutCounters, FederationStats, Mailbox};
use crate::lock;
use crate::remote::LiveBridge;

/// One-way network delay between distinct nodes: the runtime's federation
/// injects it and the simulator prices its messages with it, so both
/// substrates draw from one model (DESIGN.md substitution 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Latency {
    /// Deliver as fast as the channel allows.
    None,
    /// A fixed delay per message.
    Constant(StdDuration),
    /// Uniformly distributed in `[lo, hi]`.
    Uniform {
        /// Minimum delay.
        lo: StdDuration,
        /// Maximum delay.
        hi: StdDuration,
    },
}

impl Latency {
    /// The paper's Figure 8 one-way event delay: 283–361 µs.
    pub const FIGURE_8: Latency =
        Latency::Uniform { lo: StdDuration::from_micros(283), hi: StdDuration::from_micros(361) };

    /// Draws one delay; a `Uniform` with `hi <= lo` reads as `lo` and draws
    /// nothing.
    pub fn sample(&self, rng: &mut StdRng) -> StdDuration {
        match *self {
            Latency::None => StdDuration::ZERO,
            Latency::Constant(d) => d,
            Latency::Uniform { lo, hi } => {
                if hi <= lo {
                    lo
                } else {
                    let span = (hi - lo).as_nanos() as u64;
                    lo + StdDuration::from_nanos(rng.gen_range(0..=span))
                }
            }
        }
    }
}

/// Source of federation host ids, mixed from pid, a nanosecond clock, and
/// a per-process counter. Host ids let protocols that bridge federations
/// over TCP (`remote`) tell which federation a message originated from —
/// e.g. the reconfiguration quorum counts one vote per bridged host.
static NEXT_HOST_ID: AtomicU64 = AtomicU64::new(1);

/// splitmix64's increment, the golden ratio in 64 bits.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 finalizer: a bijection whose every output bit depends
/// on every input bit.
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mint_host_id() -> u64 {
    let counter = NEXT_HOST_ID.fetch_add(1, Ordering::Relaxed);
    let pid = u64::from(std::process::id());
    let clock = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    // Finalize through splitmix64. A plain shift-and-xor combination is
    // not enough here: neighbouring pids and a coarse clock share almost
    // all their bits, and the multi-process harness demonstrated two
    // processes spawned within the same millisecond minting the SAME id
    // (merging their quorum votes). The seed sum is injective in
    // `counter` for a fixed (pid, clock) and splitmix64 is a bijection,
    // so ids within one process stay guaranteed distinct while the
    // avalanche de-collides processes at full 64-bit strength.
    finalize(
        clock.wrapping_add(pid.rotate_left(32)).wrapping_add(counter.wrapping_mul(GOLDEN_GAMMA)),
    )
}

/// The precomputed route of one `(publisher node, topic)` pair.
struct TopicRoute {
    /// Mailboxes of subscribers on the publishing node itself, in
    /// subscription order.
    local: Vec<Arc<Mailbox>>,
    /// Other nodes with subscribers on the topic, ascending — empty for a
    /// pure-local topic, so such publishes do no remote work at all.
    remotes: Box<[NodeId]>,
}

/// An immutable routing snapshot (RCU): readers load the [`Arc`] and go;
/// subscription changes build a fresh table and swap it in.
struct RouteTable {
    generation: u64,
    routes: HashMap<(NodeId, Topic), Arc<TopicRoute>>,
}

/// The mutable subscription registry behind the snapshots (writer side
/// only — publishers never touch it).
#[derive(Default)]
struct Registry {
    /// Every mailbox registered under a `(node, topic)`, in subscription
    /// order.
    subs: HashMap<(NodeId, Topic), Vec<Arc<Mailbox>>>,
    /// Which nodes have (ever had) subscribers per topic — drives remote
    /// forwarding, exactly like TAO's gateway subscription propagation.
    topic_nodes: HashMap<Topic, BTreeSet<NodeId>>,
}

impl Registry {
    /// Drops mailboxes whose receivers are gone, so subscriber churn (e.g.
    /// a TCP bridge reconnecting and minting a fresh mailbox each time)
    /// cannot grow the registry — or the rebuilt routes, and with them
    /// per-publish cost — without bound. Run on every subscription change;
    /// `topic_nodes` intentionally keeps its "ever subscribed" semantics.
    fn purge_detached(&mut self) {
        self.subs.retain(|_, mailboxes| {
            mailboxes.retain(|mailbox| mailbox.is_attached());
            !mailboxes.is_empty()
        });
    }
}

/// Remote-parcel state: the jitter RNG, the parcel sequencer and the
/// network's inbox share **one** lock so a publish acquires it once for
/// its whole destination batch.
struct NetState {
    rng: StdRng,
    seq: u64,
    /// Parcels `((deliver_at ns, seq), (to, event))` the [`Network`] has
    /// not taken yet.
    inbox: Vec<((u64, u64), (NodeId, Event))>,
    /// Consumers hosted since the [`Network`]'s last move, in hosting
    /// order.
    hosted: Vec<Box<dyn Consumer>>,
    /// Cleared by [`Federation::shutdown`] and by dropping the
    /// [`Network`]: nothing is forwarded or hosted after it.
    open: bool,
}

struct Inner {
    node_count: u16,
    host_id: u64,
    latency: Latency,
    /// The nanosecond axis parcels are stamped on.
    now_ns: Box<dyn Fn() -> u64 + Send + Sync>,
    registry: Mutex<Registry>,
    table: RwLock<Arc<RouteTable>>,
    /// Published *after* the table swap (release); handle caches validate
    /// against it with one acquire load.
    generation: AtomicU64,
    net: Mutex<NetState>,
    /// Set by [`Federation::host`], cleared by the executor's delivery
    /// step once it hosts nothing: while it is set, a local delivery may
    /// be a hosted consumer's event, and rings the bell.
    hosting: AtomicBool,
    /// Rung by every parcel, every hosting and shutdown, and by a local
    /// delivery while `hosting` is set; only the executor's thread waits on it.
    bell: Bell,
    counters: FanoutCounters,
    /// TCP bridges currently running on this federation (see
    /// [`ChannelHandle::fail_bridges_from`]).
    bridges: Mutex<Vec<LiveBridge>>,
}

impl Inner {
    /// Rebuilds the routing snapshot from the registry (caller holds the
    /// registry lock, serializing writers).
    fn rebuild_table(&self, reg: &Registry) {
        let generation = self.generation.load(Ordering::Relaxed) + 1;
        let mut routes = HashMap::new();
        for (&topic, nodes) in &reg.topic_nodes {
            let sorted: Vec<NodeId> = nodes.iter().copied().collect();
            for n in 0..self.node_count {
                let node = NodeId(n);
                let local = reg.subs.get(&(node, topic)).cloned().unwrap_or_default();
                let remotes: Box<[NodeId]> =
                    sorted.iter().copied().filter(|&m| m != node).collect();
                if local.is_empty() && remotes.is_empty() {
                    continue;
                }
                routes.insert((node, topic), Arc::new(TopicRoute { local, remotes }));
            }
        }
        *self.table.write().unwrap_or_else(PoisonError::into_inner) =
            Arc::new(RouteTable { generation, routes });
        self.generation.store(generation, Ordering::Release);
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Close every mailbox so outstanding receivers observe
        // `Disconnected` once they drain — when the last handle went away.
        let reg = self.registry.get_mut().unwrap_or_else(PoisonError::into_inner);
        for mailbox in reg.subs.values().flatten() {
            mailbox.close();
        }
    }
}

/// What wakes the one thread running a federation's executor on the wall
/// clock, its one wait: a ring count every ring bumps, and a condvar it is
/// notified on only while that thread is parked, so a ring costs two
/// atomics, not a system call.
#[derive(Default)]
struct Bell {
    rings: AtomicU64,
    parked: AtomicBool,
    lock: Mutex<()>,
    rung: Condvar,
}

impl Bell {
    fn ring(&self) {
        self.rings.fetch_add(1, Ordering::SeqCst);
        // Sequentially consistent with `park`'s store-then-load: either the
        // parker reads this ring, or this reads `parked`; then taking the
        // lock, which the parker holds until it waits, puts the notify
        // after the wait began.
        if self.parked.load(Ordering::SeqCst) {
            drop(lock(&self.lock));
            self.rung.notify_one();
        }
    }
}

/// A consumer that a federation's executor steps: a run-to-completion
/// task in the sense of RTFM (SNIPPETS.md #2), hosted with
/// [`Federation::host`]. Both calls read the federation's clock.
pub trait Consumer: Send {
    /// When the consumer is next ready: at or before `now_ns` if it can
    /// step now, a later instant for a deadline, `None` while only an
    /// event can make it ready.
    fn ready_at(&mut self, now_ns: u64) -> Option<u64>;
    /// One step at `now_ns`; `Break` removes the consumer.
    fn step(&mut self, now_ns: u64) -> ControlFlow<()>;
}

/// A federation of local event channels over a latency-injecting
/// in-process network.
pub struct Federation {
    inner: Arc<Inner>,
    net_thread: Option<std::thread::JoinHandle<()>>,
}

impl fmt::Debug for Federation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Federation")
            .field("node_count", &self.inner.node_count)
            .field("latency", &self.inner.latency)
            .finish()
    }
}

impl Federation {
    /// Creates a federation of `node_count` nodes on the wall clock and
    /// starts its one thread ([`Federation::spawn`]). `seed` drives
    /// latency jitter sampling and the tie rule.
    #[must_use]
    pub fn new(node_count: u16, latency: Latency, seed: u64) -> Self {
        let origin = Instant::now();
        let wall = move || origin.elapsed().as_nanos() as u64;
        let (mut federation, network) = Federation::stepped(node_count, latency, seed, wall);
        federation.spawn(network, "rtcm-events-net");
        federation
    }

    /// A federation whose parcels are stamped by `now_ns`, a nanosecond
    /// clock. It spawns no thread: the caller steps the returned executor
    /// with [`Network::advance`], or hands it to [`Federation::spawn`].
    /// `seed` drives latency jitter sampling and the tie rule.
    #[must_use]
    pub fn stepped(
        node_count: u16,
        latency: Latency,
        seed: u64,
        now_ns: impl Fn() -> u64 + Send + Sync + 'static,
    ) -> (Self, Network) {
        let inner = Arc::new(Inner {
            node_count,
            host_id: mint_host_id(),
            latency,
            now_ns: Box::new(now_ns),
            registry: Mutex::new(Registry::default()),
            table: RwLock::new(Arc::new(RouteTable { generation: 0, routes: HashMap::new() })),
            generation: AtomicU64::new(0),
            net: Mutex::new(NetState {
                rng: StdRng::seed_from_u64(seed),
                seq: 0,
                inbox: Vec::new(),
                hosted: Vec::new(),
                open: true,
            }),
            hosting: AtomicBool::new(false),
            bell: Bell::default(),
            counters: FanoutCounters::default(),
            bridges: Mutex::new(Vec::new()),
        });
        let network = Network {
            inner: Arc::clone(&inner),
            queue: BTreeMap::new(),
            rings: 0,
            open: true,
            consumers: Vec::new(),
            ties: seed,
            ready: Vec::new(),
        };
        (Federation { inner, net_thread: None }, network)
    }

    /// This federation's unique host identity. Events do not carry it; it
    /// exists for *protocols* layered on bridged federations (e.g. the
    /// runtime's reconfiguration quorum) to distinguish hosts — two
    /// federations never share an id within a process, and collisions
    /// across processes are negligible (pid + wall-clock mixed in).
    #[must_use]
    pub fn host_id(&self) -> u64 {
        self.inner.host_id
    }

    /// Aggregate event-path counters: publishes, per-subscriber
    /// deliveries, remote parcels and bridge tallies. Maintained with
    /// relaxed atomics on the publish path.
    #[must_use]
    pub fn stats(&self) -> FederationStats {
        self.inner.counters.snapshot()
    }

    /// Obtains the channel handle of `node`.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownNodeError`] if the node id is out of range.
    pub fn handle(&self, node: NodeId) -> Result<ChannelHandle, UnknownNodeError> {
        if node.0 >= self.inner.node_count {
            return Err(UnknownNodeError { node, node_count: self.inner.node_count });
        }
        Ok(ChannelHandle::new(node, Arc::clone(&self.inner)))
    }

    /// Hosts `consumer` on this federation's executor, after every
    /// consumer hosted before it (the order the tie rule draws from). The
    /// executor steps it until a step returns `Break` or the executor
    /// ends, and drops it then; after [`Federation::shutdown`] it is
    /// dropped at once.
    pub fn host(&self, consumer: impl Consumer + 'static) {
        let mut net = lock(&self.inner.net);
        if net.open {
            net.hosted.push(Box::new(consumer));
            self.inner.hosting.store(true, Ordering::SeqCst);
            drop(net);
            self.inner.bell.ring();
        }
    }

    /// Runs `network`, this federation's executor, on a thread of its own
    /// named `name`: on the federation's clock, parked on its bell where a
    /// stepping caller would jump the clock, until the first idle move
    /// after [`Federation::shutdown`], which joins the thread.
    ///
    /// # Panics
    ///
    /// If `network` is another federation's executor, which this one's
    /// shutdown would never end.
    pub fn spawn(&mut self, network: Network, name: &str) {
        assert!(Arc::ptr_eq(&self.inner, &network.inner), "spawn runs this federation's network");
        let thread = std::thread::Builder::new().name(name.into());
        self.net_thread = Some(thread.spawn(move || network.run()).expect("spawn a thread"));
    }

    /// True from [`Federation::spawn`] (which [`Federation::new`] calls)
    /// until [`Federation::shutdown`]: a thread runs the executor. False
    /// while a caller steps it with [`Network::advance`].
    #[must_use]
    pub fn has_thread(&self) -> bool {
        self.net_thread.is_some()
    }

    /// Stops forwarding and hosting; the executor ends at its next idle
    /// move and delivers every parcel in flight at once, in
    /// `(deliver_at, seq)` order. This joins the thread
    /// [`Federation::spawn`] started; a stepped federation's executor is
    /// its caller's. Local publish/subscribe keeps working.
    pub fn shutdown(&mut self) {
        lock(&self.inner.net).open = false;
        self.inner.bell.ring();
        if let Some(t) = self.net_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Federation {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A federation's executor: the parcels in flight, in landing order, and
/// the consumers hosted on it. It is the thread of a [`Federation::new`],
/// or a [`Federation::stepped`] caller's.
pub struct Network {
    inner: Arc<Inner>,
    queue: BTreeMap<(u64, u64), (NodeId, Event)>,
    /// The bell's ring count when the last delivery step began.
    rings: u64,
    /// False once the federation shut down, as of the last delivery step.
    open: bool,
    /// The hosted consumers, in hosting order.
    consumers: Vec<Box<dyn Consumer>>,
    /// The tie rule's state: a splitmix64 counter seeded with the
    /// federation's seed.
    ties: u64,
    /// The consumers ready in the current move (kept to reuse its buffer).
    ready: Vec<usize>,
}

impl Network {
    /// One move: delivers every parcel due at `now_ns`, in
    /// `(deliver_at, seq)` order, then steps one ready consumer, picked
    /// with the seeded tie rule. Returns `now_ns` if it stepped one, else
    /// the earliest instant a parcel lands or a consumer is ready (`None`
    /// while nothing is pending).
    pub fn advance(&mut self, now_ns: u64) -> Option<u64> {
        let mut next = self.deliver_due(now_ns);
        self.ready.clear();
        for (c, consumer) in self.consumers.iter_mut().enumerate() {
            match consumer.ready_at(now_ns) {
                Some(at) if at <= now_ns => self.ready.push(c),
                Some(at) => next = Some(next.map_or(at, |n| n.min(at))),
                None => {}
            }
        }
        if self.ready.is_empty() {
            return next;
        }
        self.ties = self.ties.wrapping_add(1);
        let draw = finalize(self.ties.wrapping_add(GOLDEN_GAMMA));
        let pick = self.ready[(draw % self.ready.len() as u64) as usize];
        if self.consumers[pick].step(now_ns).is_break() {
            self.consumers.remove(pick);
        }
        Some(now_ns)
    }

    /// The executor on the federation's clock: [`Network::advance`] until
    /// its first idle move after [`Federation::shutdown`], parked on the
    /// bell where a stepped caller would jump its clock; then every
    /// parcel still in flight lands at once. The timed park is precise
    /// (the thread's timer slack is 1 ns while it waits), so a hop takes
    /// its injected delay plus the thread's wake-up latency, never less:
    /// ≈ 25 µs at the median for a 300 µs hop on a 2-core Linux VM,
    /// against ≈ 70 µs under the default 50 µs slack. A spin would keep
    /// hops exact, but it burns the processor the receiving threads share
    /// (DESIGN.md "Single-lock parcels, batched writes", "Precise timed
    /// waits").
    fn run(mut self) {
        loop {
            let now_ns = (self.inner.now_ns)();
            match self.advance(now_ns) {
                Some(at) if at == now_ns => {}
                _ if !self.open => break,
                next => self.park(next),
            }
        }
        self.deliver_due(u64::MAX);
    }

    /// Takes the parcels and consumers handed over since the last call,
    /// delivers every parcel due at `now_ns`, in `(deliver_at, seq)`
    /// order, and returns the next one's due instant.
    fn deliver_due(&mut self, now_ns: u64) -> Option<u64> {
        self.rings = self.inner.bell.rings.load(Ordering::SeqCst);
        let mut net = lock(&self.inner.net);
        self.queue.extend(net.inbox.drain(..));
        self.consumers.append(&mut net.hosted);
        if self.consumers.is_empty() {
            // Under the lock `host` sets it under: nothing is hosted now.
            self.inner.hosting.store(false, Ordering::SeqCst);
        }
        self.open = net.open;
        drop(net);
        while let Some(parcel) = self.queue.first_entry().filter(|p| p.key().0 <= now_ns) {
            let (to, event) = parcel.remove();
            let table = self.inner.table.read().unwrap_or_else(PoisonError::into_inner);
            let Some(route) = table.routes.get(&(to, event.topic)) else { continue };
            let delivered: usize = route.local.iter().map(|mailbox| mailbox.push(&event)).sum();
            self.inner.counters.delivered.fetch_add(delivered as u64, Ordering::Relaxed);
        }
        self.queue.first_key_value().map(|(&(at, _), _)| at)
    }

    /// Parks the calling thread until `until_ns` on the federation's clock
    /// (untimed for `None`) or until the bell rings, whichever comes
    /// first; it returns at once if the bell rang since the last delivery
    /// step began, so a move that found nothing to do parks without
    /// missing a ring from another thread.
    fn park(&self, until_ns: Option<u64>) {
        let bell = &self.inner.bell;
        let guard = lock(&bell.lock);
        bell.parked.store(true, Ordering::SeqCst);
        if bell.rings.load(Ordering::SeqCst) == self.rings {
            let now_ns = (self.inner.now_ns)();
            match until_ns.map(|at| StdDuration::from_nanos(at.saturating_sub(now_ns))) {
                Some(wait) => drop(crate::slack::precisely(|| bell.rung.wait_timeout(guard, wait))),
                None => drop(bell.rung.wait(guard)),
            }
        }
        bell.parked.store(false, Ordering::SeqCst);
    }
}

impl Drop for Network {
    /// The executor is gone: nothing is forwarded or hosted any more, and
    /// a consumer hosted since its last move is dropped with the ones it
    /// stepped.
    fn drop(&mut self) {
        let mut net = lock(&self.inner.net);
        net.open = false;
        net.hosted.clear();
    }
}

/// The per-handle route cache: one topic's route, validated against the
/// table generation with a single atomic load. The default is already a
/// correct entry: generation 0 is the empty table, which routes no topic.
#[derive(Default)]
struct RouteCache {
    generation: u64,
    topic: Topic,
    route: Option<Arc<TopicRoute>>,
}

/// A node's local event channel within a [`Federation`].
pub struct ChannelHandle {
    node: NodeId,
    inner: Arc<Inner>,
    cache: Mutex<RouteCache>,
}

impl fmt::Debug for ChannelHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChannelHandle").field("node", &self.node).finish()
    }
}

impl Clone for ChannelHandle {
    fn clone(&self) -> Self {
        // Fresh (cold) cache: caches are per-handle so clones on other
        // threads never contend.
        ChannelHandle::new(self.node, Arc::clone(&self.inner))
    }
}

impl ChannelHandle {
    fn new(node: NodeId, inner: Arc<Inner>) -> Self {
        ChannelHandle { node, inner, cache: Mutex::new(RouteCache::default()) }
    }

    /// The owning federation's host identity (see [`Federation::host_id`]).
    #[must_use]
    pub fn host_id(&self) -> u64 {
        self.inner.host_id
    }

    /// The owning federation's clock, in nanoseconds: the axis its
    /// parcels are stamped on and its executor steps consumers on.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        (self.inner.now_ns)()
    }

    /// Registers a consumer for `topic` on this node and returns its
    /// queue — `subscribe_many(&[topic])`. Subscription is propagated to
    /// all gateways (publishers on other nodes start forwarding
    /// immediately). The queue is unbounded.
    pub fn subscribe(&self, topic: Topic) -> EventReceiver {
        self.subscribe_many(&[topic])
    }

    /// Registers one **mailbox** consuming every listed topic on this
    /// node: a single receiver observing all of them merged in publish
    /// order (events carry their [`Topic`] for dispatch). This is the
    /// runtime's node/manager inbox shape — one queue, one wait point.
    /// Duplicate topics are ignored.
    pub fn subscribe_many(&self, topics: &[Topic]) -> EventReceiver {
        let mut reg = lock(&self.inner.registry);
        reg.purge_detached();
        let (mailbox, rx) = Mailbox::open();
        let unique: BTreeSet<Topic> = topics.iter().copied().collect();
        for topic in unique {
            reg.subs.entry((self.node, topic)).or_default().push(Arc::clone(&mailbox));
            reg.topic_nodes.entry(topic).or_default().insert(self.node);
        }
        self.inner.rebuild_table(&reg);
        rx
    }

    /// Publishes an event: synchronous delivery to this node's consumers,
    /// network-delayed delivery to every other node with consumers on the
    /// topic. Returns the number of local deliveries plus remote parcels
    /// sent.
    pub fn publish(&self, topic: Topic, payload: impl Into<bytes::Bytes>) -> usize {
        let event = Event::new(topic, self.node, payload);
        let counters = &self.inner.counters;
        counters.published.fetch_add(1, Ordering::Relaxed);

        // Fast path: one acquire load validates the cached route; repeat
        // publishes on one topic never touch the table or its lock.
        let generation = self.inner.generation.load(Ordering::Acquire);
        let mut cache = lock(&self.cache);
        if !(cache.generation == generation && cache.topic == topic) {
            let table = self.inner.table.read().unwrap_or_else(PoisonError::into_inner).clone();
            *cache = RouteCache {
                generation: table.generation,
                topic,
                route: table.routes.get(&(self.node, topic)).cloned(),
            };
        }
        let Some(route) = cache.route.as_ref() else {
            return 0; // no subscribers anywhere: nothing to do
        };

        let local_delivered: usize = route.local.iter().map(|mailbox| mailbox.push(&event)).sum();
        // The delivered counter takes only the local fan-out here; remote
        // parcels are counted by `Network::deliver_due` when they land
        // (the return value still reports local deliveries + parcels
        // sent, as documented).
        let sent =
            if route.remotes.is_empty() { 0 } else { self.send_parcels(&route.remotes, &event) };
        if local_delivered > 0 {
            counters.delivered.fetch_add(local_delivered as u64, Ordering::Relaxed);
        }
        // The ring rule: a parcel always wakes the executor; a local
        // delivery only where a hosted consumer may be waiting for it.
        if sent > 0 || (local_delivered > 0 && self.inner.hosting.load(Ordering::SeqCst)) {
            self.inner.bell.ring();
        }
        local_delivered + sent
    }

    /// The owning federation's fan-out counters (bridges bump their
    /// rx-error / disconnect / tx-drop tallies through this).
    pub(crate) fn counters(&self) -> &FanoutCounters {
        &self.inner.counters
    }

    /// The owning federation's running TCP bridges (each registers itself
    /// for as long as its pumps run).
    pub(crate) fn bridges(&self) -> &Mutex<Vec<LiveBridge>> {
        &self.inner.bridges
    }

    /// Snapshot of the owning federation's event-path counters — the same
    /// numbers as [`Federation::stats`], reachable from a cloned handle so
    /// long-lived exporters (e.g. an OAM scrape closure) need not borrow
    /// the federation itself.
    #[must_use]
    pub fn federation_stats(&self) -> FederationStats {
        self.inner.counters.snapshot()
    }

    /// Sequences and latency-samples one parcel of `event` per remote
    /// destination and puts them in the network's inbox, all under
    /// one `net` lock acquisition. Destinations ascend, so the per-seed RNG
    /// stream is stable.
    fn send_parcels(&self, remotes: &[NodeId], event: &Event) -> usize {
        let mut guard = lock(&self.inner.net);
        let net = &mut *guard;
        if !net.open {
            return 0; // shut down: no forwarding, no RNG consumption
        }
        let now = (self.inner.now_ns)();
        for &to in remotes {
            let delay = self.inner.latency.sample(&mut net.rng).as_nanos() as u64;
            net.seq += 1;
            net.inbox.push(((now + delay, net.seq), (to, event.clone())));
        }
        drop(guard);
        self.inner.counters.remote_parcels.fetch_add(remotes.len() as u64, Ordering::Relaxed);
        remotes.len()
    }
}

/// Error for handles requested on nonexistent nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownNodeError {
    /// The requested node.
    pub node: NodeId,
    /// Nodes in the federation.
    pub node_count: u16,
}

impl fmt::Display for UnknownNodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node {} outside the federation's 0..{} range", self.node, self.node_count)
    }
}

impl std::error::Error for UnknownNodeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fanout::TryRecvError;
    use std::time::Duration as StdDuration;

    const RECV: StdDuration = StdDuration::from_secs(2);

    #[test]
    fn local_delivery_is_synchronous() {
        let fed = Federation::new(1, Latency::None, 0);
        let h = fed.handle(NodeId(0)).unwrap();
        let rx = h.subscribe(Topic(1));
        let n = h.publish(Topic(1), &b"x"[..]);
        assert_eq!(n, 1);
        // No network hop: already in the queue.
        let e = rx.try_recv().unwrap();
        assert_eq!(e.payload.as_ref(), b"x");
    }

    #[test]
    fn cross_node_delivery() {
        let fed = Federation::new(3, Latency::None, 0);
        let rx1 = fed.handle(NodeId(1)).unwrap().subscribe(Topic(9));
        let rx2 = fed.handle(NodeId(2)).unwrap().subscribe(Topic(9));
        fed.handle(NodeId(0)).unwrap().publish(Topic(9), &b"cast"[..]);
        assert_eq!(rx1.recv_timeout(RECV).unwrap().source, NodeId(0));
        assert_eq!(rx2.recv_timeout(RECV).unwrap().source, NodeId(0));
    }

    #[test]
    fn topic_filtering() {
        let fed = Federation::new(2, Latency::None, 0);
        let rx = fed.handle(NodeId(1)).unwrap().subscribe(Topic(1));
        fed.handle(NodeId(0)).unwrap().publish(Topic(2), &b"other"[..]);
        assert!(rx.recv_timeout(StdDuration::from_millis(50)).is_err());
    }

    #[test]
    fn publish_without_consumers_is_dropped() {
        let fed = Federation::new(2, Latency::None, 0);
        let n = fed.handle(NodeId(0)).unwrap().publish(Topic(1), &b"void"[..]);
        assert_eq!(n, 0);
    }

    #[test]
    fn constant_latency_delays_delivery() {
        let fed = Federation::new(2, Latency::Constant(StdDuration::from_millis(30)), 0);
        let rx = fed.handle(NodeId(1)).unwrap().subscribe(Topic(1));
        let start = Instant::now();
        fed.handle(NodeId(0)).unwrap().publish(Topic(1), &b"slow"[..]);
        rx.recv_timeout(RECV).unwrap();
        let elapsed = start.elapsed();
        assert!(elapsed >= StdDuration::from_millis(29), "elapsed {elapsed:?}");
        assert!(elapsed < StdDuration::from_millis(300), "elapsed {elapsed:?}");
    }

    #[test]
    fn latency_applies_only_across_nodes() {
        let fed = Federation::new(2, Latency::Constant(StdDuration::from_millis(200)), 0);
        let h0 = fed.handle(NodeId(0)).unwrap();
        let rx_local = h0.subscribe(Topic(1));
        h0.publish(Topic(1), &b"local"[..]);
        // Local consumers never wait on the network.
        assert!(rx_local.try_recv().is_ok());
    }

    #[test]
    fn fifo_under_constant_latency() {
        let fed = Federation::new(2, Latency::Constant(StdDuration::from_millis(5)), 0);
        let rx = fed.handle(NodeId(1)).unwrap().subscribe(Topic(1));
        let h = fed.handle(NodeId(0)).unwrap();
        for i in 0u8..20 {
            h.publish(Topic(1), vec![i]);
        }
        for i in 0u8..20 {
            let e = rx.recv_timeout(RECV).unwrap();
            assert_eq!(e.payload.as_ref(), &[i]);
        }
    }

    #[test]
    fn sub_2ms_latency_is_never_early() {
        // A Figure 8-sized delay, under 2 ms, where the wake-up latency is
        // a large share of the hop: the network thread's precise timed park
        // may wake late, never early, and parcels keep their publish order. Each
        // publish is stamped before the call, each arrival after `recv`
        // returns, so a hop shorter than the delay is an early delivery.
        const DELAY: StdDuration = StdDuration::from_micros(300);
        const N: u8 = 64;
        let fed = Federation::new(2, Latency::Constant(DELAY), 0);
        let rx = fed.handle(NodeId(1)).unwrap().subscribe(Topic(1));
        let h = fed.handle(NodeId(0)).unwrap();
        let publisher = std::thread::spawn(move || {
            (0..N)
                .map(|i| {
                    let at = Instant::now();
                    assert_eq!(h.publish(Topic(1), vec![i]), 1, "one parcel, no local delivery");
                    std::thread::sleep(StdDuration::from_micros(100));
                    at
                })
                .collect::<Vec<Instant>>()
        });
        let arrivals: Vec<(u8, Instant)> = (0..N)
            .map(|_| {
                let e = rx.recv_timeout(RECV).unwrap();
                (e.payload[0], Instant::now())
            })
            .collect();
        let published = publisher.join().unwrap();
        for (i, &(tag, at)) in arrivals.iter().enumerate() {
            assert_eq!(usize::from(tag), i, "parcels arrive in publish order");
            let hop = at.saturating_duration_since(published[i]);
            assert!(hop >= DELAY, "parcel {i} arrived after {hop:?}, under {DELAY:?}");
            assert!(hop <= StdDuration::from_millis(50), "parcel {i} took {hop:?}");
        }
        let stats = fed.stats();
        assert_eq!((stats.events_published, stats.remote_parcels), (N.into(), N.into()));
    }

    #[test]
    fn multiple_subscribers_each_get_a_copy() {
        let fed = Federation::new(2, Latency::None, 0);
        let h1 = fed.handle(NodeId(1)).unwrap();
        let a = h1.subscribe(Topic(1));
        let b = h1.subscribe(Topic(1));
        fed.handle(NodeId(0)).unwrap().publish(Topic(1), &b"dup"[..]);
        assert!(a.recv_timeout(RECV).is_ok());
        assert!(b.recv_timeout(RECV).is_ok());
    }

    #[test]
    fn host_ids_are_unique_and_shared_by_handles() {
        let a = Federation::new(2, Latency::None, 0);
        let b = Federation::new(2, Latency::None, 0);
        assert_ne!(a.host_id(), b.host_id(), "two federations, two hosts");
        assert_eq!(a.handle(NodeId(0)).unwrap().host_id(), a.host_id());
        assert_eq!(a.handle(NodeId(1)).unwrap().host_id(), a.host_id());
    }

    #[test]
    fn unknown_node_is_an_error() {
        let fed = Federation::new(2, Latency::None, 0);
        let err = fed.handle(NodeId(7)).unwrap_err();
        assert_eq!(err, UnknownNodeError { node: NodeId(7), node_count: 2 });
        assert!(err.to_string().contains("N7"));
    }

    #[test]
    #[should_panic(expected = "spawn runs this federation's network")]
    fn spawn_takes_only_its_own_network() {
        let (mut federation, _network) = Federation::stepped(1, Latency::None, 0, || 0);
        let (_other, network) = Federation::stepped(1, Latency::None, 0, || 0);
        federation.spawn(network, "rtcm-test");
    }

    #[test]
    fn shutdown_stops_forwarding_but_not_local() {
        let mut fed = Federation::new(2, Latency::None, 0);
        let h0 = fed.handle(NodeId(0)).unwrap();
        let local = h0.subscribe(Topic(1));
        let remote = fed.handle(NodeId(1)).unwrap().subscribe(Topic(1));
        fed.shutdown();
        h0.publish(Topic(1), &b"after"[..]);
        assert!(local.try_recv().is_ok());
        assert!(remote.recv_timeout(StdDuration::from_millis(50)).is_err());
    }

    #[test]
    fn shutdown_delivers_parcels_in_flight() {
        let mut fed = Federation::new(2, Latency::Constant(StdDuration::from_secs(10)), 0);
        let h0 = fed.handle(NodeId(0)).unwrap();
        let remote = fed.handle(NodeId(1)).unwrap().subscribe(Topic(1));
        assert_eq!(h0.publish(Topic(1), &b"first"[..]), 1);
        assert_eq!(h0.publish(Topic(1), &b"second"[..]), 1);
        fed.shutdown();
        // Both parcels were 10 s from due; shutdown handed them over at
        // once, in publish order.
        assert_eq!(remote.try_recv().unwrap().payload.as_ref(), b"first");
        assert_eq!(remote.try_recv().unwrap().payload.as_ref(), b"second");
        // Forwarding has stopped: nothing is sent, nothing arrives.
        assert_eq!(h0.publish(Topic(1), &b"after"[..]), 0);
        assert_eq!(remote.try_recv().unwrap_err(), TryRecvError::Empty);
    }

    #[test]
    fn uniform_latency_stays_in_range() {
        let fed = Federation::new(
            2,
            Latency::Uniform { lo: StdDuration::from_millis(5), hi: StdDuration::from_millis(15) },
            42,
        );
        let rx = fed.handle(NodeId(1)).unwrap().subscribe(Topic(1));
        for _ in 0..5 {
            let start = Instant::now();
            fed.handle(NodeId(0)).unwrap().publish(Topic(1), &b"j"[..]);
            rx.recv_timeout(RECV).unwrap();
            let e = start.elapsed();
            assert!(e >= StdDuration::from_millis(4), "elapsed {e:?}");
            assert!(e < StdDuration::from_millis(500), "elapsed {e:?}");
        }
    }

    #[test]
    fn constant_and_none_sample_exactly() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(Latency::None.sample(&mut rng), StdDuration::ZERO);
        let d = StdDuration::from_micros(322);
        assert_eq!(Latency::Constant(d).sample(&mut rng), d);
    }

    #[test]
    fn uniform_stays_in_range_and_centres() {
        let mut rng = StdRng::seed_from_u64(1);
        let (lo, hi) = (StdDuration::from_micros(100), StdDuration::from_micros(200));
        let m = Latency::Uniform { lo, hi };
        let mut sum = StdDuration::ZERO;
        const N: u32 = 4_000;
        for _ in 0..N {
            let s = m.sample(&mut rng);
            assert!(s >= lo && s <= hi);
            sum += s;
        }
        let mean = sum / N;
        assert!(
            mean > StdDuration::from_micros(145) && mean < StdDuration::from_micros(155),
            "empirical mean {mean:?}"
        );
    }

    #[test]
    fn degenerate_uniform_returns_lo() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = StdDuration::from_micros(5);
        assert_eq!(Latency::Uniform { lo: d, hi: d }.sample(&mut rng), d);
        assert_eq!(Latency::Uniform { lo: d, hi: StdDuration::ZERO }.sample(&mut rng), d);
    }

    #[test]
    fn figure_8_draw_stream_is_pinned() {
        // The simulator's comm delays and the runtime's injected delays
        // are this stream; a change here moves every simulated trace.
        let mut rng = StdRng::seed_from_u64(7);
        let ns: Vec<u128> = (0..8).map(|_| Latency::FIGURE_8.sample(&mut rng).as_nanos()).collect();
        assert_eq!(ns, [308027, 286685, 306023, 353675, 290817, 357752, 305265, 298211]);
    }

    #[test]
    fn stress_many_messages_across_nodes() {
        let fed = Federation::new(4, Latency::Constant(StdDuration::from_micros(100)), 1);
        let receivers: Vec<_> =
            (1..4).map(|n| fed.handle(NodeId(n)).unwrap().subscribe(Topic(1))).collect();
        let h = fed.handle(NodeId(0)).unwrap();
        const N: usize = 500;
        for i in 0..N {
            h.publish(Topic(1), vec![(i % 256) as u8]);
        }
        for rx in &receivers {
            for _ in 0..N {
                rx.recv_timeout(RECV).expect("all messages delivered");
            }
        }
    }

    #[test]
    fn route_cache_tracks_new_subscriptions() {
        let fed = Federation::new(1, Latency::None, 0);
        let h = fed.handle(NodeId(0)).unwrap();
        let a = h.subscribe(Topic(1));
        assert_eq!(h.publish(Topic(1), &b"one"[..]), 1, "cache warmed on one subscriber");
        // A later subscription must invalidate the publisher's cache.
        let b = h.subscribe(Topic(1));
        assert_eq!(h.publish(Topic(1), &b"two"[..]), 2, "generation bump reaches the cache");
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 1, "late subscriber sees only future events");
    }

    #[test]
    fn pure_local_publish_emits_no_parcels() {
        let fed = Federation::new(4, Latency::None, 0);
        let h0 = fed.handle(NodeId(0)).unwrap();
        let _local = h0.subscribe(Topic(1));
        // Other nodes registered on unrelated topics only.
        let _g1 = fed.handle(NodeId(1)).unwrap().subscribe(Topic(2));
        let _g2 = fed.handle(NodeId(2)).unwrap().subscribe(Topic(3));
        for _ in 0..10 {
            assert_eq!(h0.publish(Topic(1), &b"stay"[..]), 1);
        }
        let stats = fed.stats();
        assert_eq!(stats.remote_parcels, 0, "no remote work for a pure-local topic");
        assert_eq!(stats.local_deliveries, 10);
        assert_eq!(stats.events_published, 10);
    }

    #[test]
    fn mailbox_merges_topics_in_publish_order() {
        let fed = Federation::new(1, Latency::None, 0);
        let h = fed.handle(NodeId(0)).unwrap();
        let mailbox = h.subscribe_many(&[Topic(1), Topic(2), Topic(2)]);
        h.publish(Topic(1), &b"a"[..]);
        h.publish(Topic(2), &b"b"[..]);
        h.publish(Topic(1), &b"c"[..]);
        h.publish(Topic(3), &b"skip"[..]);
        let got: Vec<(Topic, Vec<u8>)> = (0..3)
            .map(|_| {
                let e = mailbox.try_recv().unwrap();
                (e.topic, e.payload.to_vec())
            })
            .collect();
        assert_eq!(
            got,
            vec![(Topic(1), b"a".to_vec()), (Topic(2), b"b".to_vec()), (Topic(1), b"c".to_vec()),]
        );
        assert!(mailbox.try_recv().is_err(), "unsubscribed topics never arrive");
    }

    #[test]
    fn same_seed_reproduces_sampled_latencies_and_delivery_order() {
        // The publish path consumes the jitter RNG once per remote
        // destination, in publish order — so with one remote subscriber,
        // the sampled delay stream is exactly `Latency::sample` on an
        // identically seeded RNG. A stepped network lands each parcel at
        // exactly its publish instant plus that draw, and the network
        // thread, on the wall clock, must deliver in the stepped order (a
        // later publish with a smaller delay overtakes). Both halves of
        // the determinism contract, on both drivers of the one delivery
        // step.
        const SEED: u64 = 3;
        const N: usize = 8;
        let latency = Latency::Uniform { lo: StdDuration::ZERO, hi: StdDuration::from_millis(400) };

        let mut rng = StdRng::seed_from_u64(SEED);
        let delays: Vec<StdDuration> = (0..N).map(|_| latency.sample(&mut rng)).collect();
        // Deterministic flake guard: the seed's delays must be separated
        // by far more than publish-instant skew (µs) plus scheduler noise,
        // or predicting the order from them would be meaningless. This
        // assertion cannot flake — the samples are a pure function of the
        // seed; if it ever fires, pick a better seed.
        let mut sorted = delays.clone();
        sorted.sort();
        for pair in sorted.windows(2) {
            assert!(
                pair[1] - pair[0] >= StdDuration::from_millis(8),
                "seed {SEED} samples too close for a timing-robust order: {delays:?}"
            );
        }

        // The stepped network: publishes 1 µs apart, then every due
        // instant in turn.
        let now = Arc::new(AtomicU64::new(0));
        let clock = Arc::clone(&now);
        let (fed, mut network) =
            Federation::stepped(2, latency, SEED, move || clock.load(Ordering::Relaxed));
        let rx = fed.handle(NodeId(1)).unwrap().subscribe(Topic(1));
        let h = fed.handle(NodeId(0)).unwrap();
        for i in 0..N {
            now.store(i as u64 * 1_000, Ordering::Relaxed);
            assert_eq!(h.publish(Topic(1), vec![i as u8]), 1);
        }
        let mut landed = Vec::new();
        let mut next = network.deliver_due(now.load(Ordering::Relaxed));
        while let Some(at) = next {
            now.store(at, Ordering::Relaxed);
            next = network.deliver_due(at);
            landed.extend(std::iter::from_fn(|| rx.try_recv().ok()).map(|e| (e.payload[0], at)));
        }
        for &(i, at) in &landed {
            let drawn = u64::from(i) * 1_000 + delays[usize::from(i)].as_nanos() as u64;
            assert_eq!(at, drawn, "parcel {i} lands at its drawn instant, not before or after");
        }
        let expected: Vec<u8> = landed.iter().map(|&(i, _)| i).collect();
        assert_eq!(expected.len(), N);

        // The threads match only if the publish *instants* are close
        // together relative to the delay gaps. A descheduled publisher
        // (loaded CI) can stretch them past the 8 ms floor, so attempts
        // whose publish window exceeded half that floor are discarded and
        // retried rather than compared.
        let mut validated = false;
        for _ in 0..10 {
            let fed = Federation::new(2, latency, SEED);
            let rx = fed.handle(NodeId(1)).unwrap().subscribe(Topic(1));
            let h = fed.handle(NodeId(0)).unwrap();
            let publish_start = Instant::now();
            for i in 0..N {
                h.publish(Topic(1), vec![i as u8]);
            }
            let publish_window = publish_start.elapsed();
            let got: Vec<u8> = (0..N).map(|_| rx.recv_timeout(RECV).unwrap().payload[0]).collect();
            if publish_window > StdDuration::from_millis(4) {
                continue; // timing-polluted attempt: prediction not binding
            }
            assert_eq!(got, expected, "delivery order must encode the seeded delay stream");
            assert_ne!(got, (0..N as u8).collect::<Vec<u8>>(), "jitter actually reorders");
            validated = true;
            break;
        }
        assert!(validated, "no attempt had a clean publish window in 10 tries");
    }

    #[test]
    fn dropped_subscriptions_are_reclaimed_on_the_next_change() {
        let fed = Federation::new(1, Latency::None, 0);
        let h = fed.handle(NodeId(0)).unwrap();
        // Churn: 64 dead mailboxes (the shape of a reconnecting bridge).
        for _ in 0..64 {
            drop(h.subscribe_many(&[Topic(1), Topic(2)]));
        }
        // The next subscription change purges them from the registry, so
        // a publish pays for live mailboxes only.
        let live = h.subscribe(Topic(1));
        assert_eq!(h.publish(Topic(1), &b"x"[..]), 1);
        assert_eq!(live.len(), 1);
        let reg = lock(&fed.inner.registry);
        assert_eq!(reg.subs.get(&(NodeId(0), Topic(1))).map(Vec::len), Some(1));
        assert!(!reg.subs.contains_key(&(NodeId(0), Topic(2))), "dead-only key removed");
    }
}
