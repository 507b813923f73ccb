/**
 * @file
 * TcpKvService: a complete replicated KV service over real TCP — the
 * protocol engines from the simulator, unchanged, behind network sockets
 * with Wings-style batching, serving external clients on every replica's
 * port. This is the "HermesKV as a deployable system" face of the
 * library (the paper's §4 system, with TCP standing in for RDMA).
 *
 * ShardedTcpDeployment stacks S of these services — one per shard of the
 * key space, each its own replica group on distinct ports, all in one
 * process with one event-loop thread per replica — behind an explicit
 * shard → address map. The map is exchanged with clients at HELLO and
 * refreshed on every WrongShard rejection, which is what turns the
 * redirect status from a dead end into a working re-route: the seqlock
 * KVS and the per-shard groups share nothing, so aggregate throughput
 * scales with cores.
 */

#ifndef HERMES_APP_TCP_SERVICE_HH
#define HERMES_APP_TCP_SERVICE_HH

#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "app/migration.hh"
#include "app/replica_handle.hh"
#include "app/slot_map.hh"
#include "net/client_msgs.hh"
#include "net/tcp_cluster.hh"

namespace hermes::app
{

/** Shard → replica-port map of a TCP deployment (net wire aliases). */
using net::ShardAddressMap;
using net::ShardPorts;

/** A running replicated KV service on localhost TCP. */
class TcpKvService : private ReplicaHost
{
  public:
    /**
     * @param protocol   replication protocol to deploy
     * @param nodes      replica count
     * @param options    store/RM/protocol options
     * @param config     TCP transport knobs (base port!)
     * @param num_shards shard count of the deployment's map (the service
     *                   runs ONE replica group, serving shard @p shard_id
     *                   of that map; 1/0 = the unsharded deployment)
     * @param shard_id   which shard this group serves
     *
     * Requests whose shard stamp disagrees with (num_shards, shard_id) —
     * a client routing with a stale map — are rejected with an explicit
     * ClientReplyMsg::Status::WrongShard instead of silently served from
     * the wrong group. The client's stamped shard *count* is checked
     * against num_shards before anything hashes or indexes, so a garbage
     * stamp can never address the map.
     *
     * Durability: when options.wal.path is non-empty it names a
     * DIRECTORY — replica i logs to `<dir>/shard<shard_id>/replica<i>.wal`
     * (durableOptions), each replica its own file, so a crash-restarted
     * replica replays exactly its own records.
     */
    TcpKvService(Protocol protocol, size_t nodes, ReplicaOptions options,
                 net::TcpConfig config = {}, size_t num_shards = 1,
                 uint32_t shard_id = 0);
    ~TcpKvService();

    /** Bind, mesh-connect, start protocol engines and client handlers. */
    void start();

    /** Stop all node loops. */
    void stop();

    /**
     * Register the full deployment's shard → address map (call before
     * start()). HELLO replies and WrongShard rejections then advertise
     * every shard's replica ports, letting clients reconnect to the
     * owning group. Without it the service advertises only its own
     * entry — all a standalone group can know.
     */
    void setDeploymentMap(ShardAddressMap map);

    /** Snapshot of the live versioned slot → shard ownership map. */
    std::shared_ptr<const SlotMap> slotMap() const;

    /**
     * Install a successor slot map (strictly newer epoch) together with
     * the deployment's address map of the same generation, and stamp
     * every replica's WAL with the new epoch so records appended from
     * here on carry the ownership generation they were written under.
     * Called by the deployment coordinator at migration cutover and on
     * addShard/removeShard; replies stamped after this advertise the
     * new epoch, which is what clients adopt strictly by version.
     */
    void installMap(const SlotMap &map, ShardAddressMap ports);

    /**
     * Admit this group's requests through @p migration (call before
     * start()), in the critical section of the ownership check. Parked
     * ops re-enter handleClientFrame when the move ends: served here
     * after an abort, answered WrongShard + the new map after a cutover.
     */
    void attachMigration(MigrationCoordinator *migration)
    {
        migration_ = migration;
    }

    /**
     * Serializes admin choreography against each other: restartReplica
     * and the deployment's migration coordinator both hold this while
     * touching replica handles from outside their loops, so a crash-
     * restart cannot destroy a handle mid-snapshot-read.
     */
    std::mutex &adminLock() { return adminMutex_; }

    /** True while replica @p id 's loop thread is running. */
    bool alive(NodeId id) override { return cluster_.running(id); }

    /** Is replica @p id a §3.4 shadow (mid state-transfer)? Queries on
     *  the replica's loop; a crashed replica counts as shadow (it is
     *  unusable as a transfer source either way). */
    bool replicaIsShadow(NodeId id);

    /** Port clients should dial for replica @p id. */
    uint16_t portOf(NodeId id) const { return cluster_.portOf(id); }

    net::TcpCluster &cluster() { return cluster_; }
    ReplicaHandle &replica(NodeId id) { return *replicas_.at(id); }
    size_t numNodes() const { return replicas_.size(); }
    uint32_t shardId() const { return shardId_; }

    /** Kill one replica (closes its sockets, halts its loop). */
    void crash(NodeId id) override { cluster_.crash(id); }

    /**
     * Crash-restart recovery over real sockets (Hermes + WAL only):
     * restartFromWal (app/replica_handle.hh) on this group, each step
     * run on its replica's loop; the rebuilt loop re-dials the full
     * mesh itself. Returns once the sync has been started; the caller
     * polls replicaIsShadow() for completion.
     */
    void restartReplica(NodeId id);

    /**
     * Graceful shutdown: stop accepting new sessions on every replica,
     * run one final flush (WAL group-commit buffers included), then
     * stop and join the loop threads. Terminal — use instead of stop().
     */
    void drain();

  private:
    void handleClientFrame(NodeId node, net::ClientConnId conn,
                           const std::shared_ptr<net::Message> &msg);

    /** The map to advertise: the deployment's, or just our own entry. */
    ShardAddressMap advertisedMap() const;

    /** Per-replica options: durableOptions under the live map. */
    ReplicaOptions optionsFor(NodeId id) const;

    // ReplicaHost: restartReplica's steps and map stamps, each on its
    // replica's loop while that runs.
    void queueJob(NodeId id, ReplicaJob job) override;
    Epoch viewEpoch(NodeId id) override;
    uint32_t mapEpoch() override { return slotMap()->epoch; }
    void rebuild(NodeId id, const membership::MembershipView &view) override;

    net::TcpCluster cluster_;
    Protocol protocol_;
    ReplicaOptions baseOptions_;
    std::vector<std::unique_ptr<ReplicaHandle>> replicas_;
    uint32_t shardId_;
    /** Guards slotMap_/deploymentMap_: read on every replica loop's
     *  request path, swapped by the coordinator thread. */
    mutable std::mutex mapMutex_;
    std::shared_ptr<const SlotMap> slotMap_;
    ShardAddressMap deploymentMap_;
    MigrationCoordinator *migration_ = nullptr;
    std::mutex adminMutex_;
};

/**
 * S per-shard replica groups served from one process: group s serves
 * the slots the deployment's SlotMap gives it (the uniform map at
 * start; migrateSlots moves them) on its own ports
 * (basePort + s*replicas … ), with one event-loop thread per replica —
 * thread-per-shard parallelism on a real network. Every group knows the
 * whole deployment's address map and advertises it at HELLO and on
 * WrongShard, so any replica of any shard can bootstrap or correct a
 * client's routing.
 */
class ShardedTcpDeployment : private MigrationRuntime
{
  public:
    ShardedTcpDeployment(Protocol protocol, size_t shards,
                         size_t replicas_per_shard, ReplicaOptions options,
                         net::TcpConfig config = {});

    /** Start every shard group (all listeners bind before any start). */
    void start();

    /** Stop all groups (idempotent). */
    void stop();

    size_t numShards() const { return groups_.size(); }
    size_t replicasPerShard() const { return replicasPerShard_; }

    TcpKvService &shard(uint32_t s) { return *groups_.at(s); }

    /** The deployment's live slot → shard ownership map. */
    const SlotMap &slotMap() const { return slotMap_; }

    /**
     * Live slot migration over real sockets while clients keep
     * operating: blocks, stepping the shared coordinator
     * (app/migration.hh) every 500 µs. It cuts over only on a passing
     * verification scan, answering parked ops with WrongShard + the new
     * map; if the scan cannot pass within 30 s it aborts and returns 0.
     * Safe against concurrent restartReplica on either group. Slots
     * @p from does not own are ignored. @return slots actually moved.
     */
    size_t migrateSlots(std::vector<uint32_t> slots, uint32_t from,
                        uint32_t to);

    /** migrateSlots without the stepping. @return whether it started. */
    bool beginMigration(std::vector<uint32_t> slots, uint32_t from,
                        uint32_t to);

    /** The migration coordinator (phase, lock(), abort(), counters). */
    MigrationCoordinator &migration() { return migration_; }

    /**
     * Grow the deployment: start a new replica group serving a brand-new
     * shard id that owns ZERO slots (epoch+1 map installed everywhere).
     * Ports continue the deployment's contiguous lanes. Data moves only
     * when a subsequent migrateSlots hands it slots. @return the id.
     */
    uint32_t addShard();

    /**
     * Shrink: stop and remove the highest-id group, which must own no
     * slots (migrate them away first); installs the epoch+1 map.
     */
    void removeShard();

    /** Port of @p shard 's @p replica -th node. */
    uint16_t
    portOf(uint32_t shard, NodeId replica = 0) const
    {
        return groups_.at(shard)->portOf(replica);
    }

    const ShardAddressMap &addressMap() const { return map_; }

    /**
     * Kill one whole shard group (every replica's loop). The other
     * shards keep serving — the fault-isolation property the per-shard
     * tests assert.
     */
    void crashShard(uint32_t s) { groups_.at(s)->stop(); }

    /** Crash-restart one replica of one shard from its WAL (see
     *  TcpKvService::restartReplica). The deployment's WAL layout is
     *  per-replica: shard s, replica r logs to
     *  `<walDir>/shard<s>/replica<r>.wal`. */
    void
    restartReplica(uint32_t shard, NodeId replica)
    {
        groups_.at(shard)->restartReplica(replica);
    }

    /** Gracefully drain every shard group (see TcpKvService::drain). */
    void
    drain()
    {
        for (auto &group : groups_)
            group->drain();
    }

  private:
    /** Build the next shard's group (not started) under an @p shards
     *  -shard map, and append its ports to map_. */
    void addGroup(size_t shards);

    // MigrationRuntime, called with both groups' admin locks held: a
    // concurrent restartReplica never destroys a handle in use.
    std::vector<Replica> sourceReplicas(uint32_t shard) override;
    void copyToDestination(uint32_t shard,
                           const std::vector<Entry> &entries) override;
    void nudge(NodeId replica, Key key) override;
    void installSuccessor(const std::vector<uint32_t> &slots,
                          uint32_t to) override;

    Protocol protocol_;
    ReplicaOptions baseOptions_;
    net::TcpConfig baseConfig_;
    size_t replicasPerShard_;
    SlotMap slotMap_;
    /** Outlives groups_: their loops admit through it until stopped. */
    MigrationCoordinator migration_;
    std::vector<std::unique_ptr<TcpKvService>> groups_;
    ShardAddressMap map_;
};

/**
 * Pipelined multi-shard session client: the one client of the
 * deployment. KvSessionClient keeps many requests in flight per
 * connection — requests carry per-session sequence numbers (reqIds),
 * replies complete out of the reply stream by reqId, and the client
 * caps its in-flight ops at the credit window the server granted at
 * HELLO (the server enforces the cap by ceasing to read an over-limit
 * session, so a cooperative client never hits raw TCP backpressure).
 * KvClient is its blocking face.
 *
 * Everything is single-threaded and non-blocking: progress() pumps all
 * sockets without blocking, wait()/waitAll() poll until completion, and
 * an external event loop (the 10-10k session bench) can multiplex
 * thousands of these clients off fds().
 *
 * Routing: each op goes to the owning shard under the client's adopted
 * SlotMap — negotiated at HELLO, re-resolved from any WrongShard
 * rejection, whose reply carries the authoritative slot owners and
 * address map; before any map is adopted every op goes to the seed. A
 * rejected op adopts the advertised map and re-issues itself toward the
 * owning shard's address, concurrently with every other op, within its
 * own deadline and kMaxRouteAttempts. It completes WrongShard at once
 * when the map gives no way forward: the new owner has no advertised
 * address, or nothing was learned since the op was sent and it
 * re-resolves to the shard that just rejected it.
 *
 * Within the owning shard, reads, writes and CAS all go to the
 * session's *home* replica: the seed, when the seed serves that shard,
 * else the replica of the seed's rank in its own shard (mod the shard's
 * replica count) — stable per session and spread across sessions
 * seeded at different replicas, so every replica serves local reads
 * and coordinates writes (paper §3). A
 * connection serves once its HELLO is answered, and a replica answers
 * HELLO only while it is not a §3.4 shadow. When home dies the session
 * fails over along the shard's address list, preferring serving
 * connections; its port is not redialed for kRedialHoldoff. While
 * failed over, the session probes home at most every kHomeProbe, and
 * returns as soon as the probe's HELLO is answered. Ops a dead
 * connection never sent, and reads, move to the failover replica;
 * writes and CAS already sent complete not-completed (they may or may
 * not have taken effect, so replaying them could apply one twice).
 */
class KvSessionClient
{
  public:
    /** Reroute attempts per op before surfacing RetriesExhausted. */
    static constexpr int kMaxRouteAttempts = 4;
    /** A port whose connection died or refused is not redialed sooner. */
    static constexpr DurationNs kRedialHoldoff = 50_ms;
    /** While failed over, how often the session redials home. */
    static constexpr DurationNs kHomeProbe = 20_ms;
    /** A connection whose HELLO stays unanswered this long is passed
     *  over for a fresh dial when the shard has no serving connection. */
    static constexpr DurationNs kHelloWait = 200_ms;

    /** Completion of one async op. */
    struct OpResult
    {
        /** Service-level status (Ok / WrongShard / RetriesExhausted). */
        net::ClientReplyMsg::Status status =
            net::ClientReplyMsg::Status::Ok;
        /** False: timed out / disconnected / unroutable. */
        bool completed = false;
        bool casApplied = false; ///< CAS: whether it applied
        Value value;             ///< read result / CAS observed value
    };

    /**
     * Connect to the deployment via the replica on @p seed_port. The
     * HELLO is pipelined, never waited on here (see awaitHello()).
     *
     * @param credits credit window to request at HELLO (0 = accept the
     *                server default). The grant comes back in the HELLO
     *                reply and caps this session's pipeline depth.
     */
    explicit KvSessionClient(uint16_t seed_port, uint32_t credits = 0);
    ~KvSessionClient();

    KvSessionClient(const KvSessionClient &) = delete;
    KvSessionClient &operator=(const KvSessionClient &) = delete;

    bool connected() const;

    /** Block until the seed's HELLO reply is adopted, the seed dies, or
     *  @p timeout passes — whichever comes first. */
    void awaitHello(DurationNs timeout = 2_s);

    /** Issue ops without blocking; the token redeems the result. */
    uint64_t readAsync(Key key, DurationNs timeout = 5_s);
    uint64_t writeAsync(Key key, Value value, DurationNs timeout = 5_s);
    uint64_t casAsync(Key key, Value expected, Value desired,
                      DurationNs timeout = 5_s);

    /** Pump every socket once; never blocks. */
    void progress();

    /** progress() and report whether @p token has completed. */
    bool done(uint64_t token);

    /** Block (polling) until @p token completes, up to its deadline.
     *  Consumes the result; unknown/already-taken tokens → nullopt. */
    std::optional<OpResult> wait(uint64_t token);

    /** Result of a completed op (consumed). nullopt: not done yet. */
    std::optional<OpResult> take(uint64_t token);

    /** Drain every in-flight op. @return ops that completed Ok. */
    size_t waitAll();

    /** Ops in flight or queued (internal hellos excluded). */
    size_t inflight() const;

    /** The window granted at HELLO (requested value until it answers). */
    uint32_t grantedCredits() const;

    size_t numShards() const { return map_.numShards; }
    const ShardAddressMap &addressMap() const { return addrs_; }

    /** Epoch of the slot map the session has adopted (0 = none yet). */
    uint32_t mapEpoch() const { return map_.epoch; }

    /** The shard owning @p key under the adopted slot map. */
    uint32_t routeShard(Key key) const { return map_.ownerOf(key); }

    /**
     * Test hook: feed an advertised map exactly as a reply would.
     * @return whether anything was adopted — false for a reply whose
     * epoch is OLDER than the client's (the strict-adoption rule: a
     * delayed advertisement must never roll routing back).
     */
    bool adoptAdvertisedMap(const net::ClientReplyMsg &reply)
    {
        return adoptMap(reply);
    }

    /** Every live socket fd — for an external epoll/poll loop driving
     *  many sessions (call progress() on readiness). */
    std::vector<int> fds() const;

    /** Port of the replica that serves this session's ops on @p shard
     *  right now (0 = none resolved yet). */
    uint16_t servingPort(uint32_t shard) const;

    /**
     * Test/bench hook: believe a window of @p w regardless of what the
     * server granted — how the credit-exhaustion suites over-drive a
     * session to prove the *server* enforces its limit.
     */
    void overrideWindow(uint32_t w);

  private:
    struct SessionConn
    {
        int fd = -1;
        uint16_t port = 0;
        bool alive = false;
        std::vector<uint8_t> tx;
        std::vector<uint8_t> rx;
        uint32_t window = 0;   ///< believed credit window
        uint32_t inflight = 0; ///< sent, not yet completed/expired
        uint64_t helloToken = 0; ///< this socket's HELLO op
        bool ready = false;      ///< HELLO answered: the replica serves
        TimeNs dialedAt = 0;
        std::deque<uint64_t> sendq; ///< tokens awaiting window room
    };
    using ConnPtr = std::shared_ptr<SessionConn>;

    struct PendingOp
    {
        net::ClientRequestMsg::Op op = net::ClientRequestMsg::Op::Read;
        Key key = 0;
        Value value;
        Value expected;
        int attempts = 0;
        TimeNs deadline = 0;
        bool internal = false; ///< bookkeeping op (HELLO), not user-visible
        ConnPtr conn;          ///< where sent/queued (null = unroutable)
        uint32_t sentShard = 0;  ///< shard stamped on the last send
        uint64_t sentMapGen = 0; ///< mapGen_ at the last send
    };

    ConnPtr dial(uint16_t port, int connect_attempts);
    /**
     * Connection serving @p shard: cached, else the first serving socket
     * in home-first order, else a fresh unanswered one, else a new dial
     * (ports in holdoff skipped), else a stale unanswered socket, else
     * the seed fallback. Dialing is bounded by @p deadline — failed
     * attempts cost real wall time (backoff sleeps), so a nearly-expired
     * op dials less, and not at all once its budget is spent.
     */
    ConnPtr connFor(uint32_t shard, TimeNs deadline);
    /** Index of @p shard 's home replica in its address list. */
    size_t homeIndex(uint32_t shard) const;
    /** A live socket to @p port, or null. */
    ConnPtr liveConnTo(uint16_t port) const;
    /** Is @p port in its no-redial holdoff at @p now? */
    bool heldOff(uint16_t port, TimeNs now) const;
    /** Failed over on @p shard: dial home now and then, so its HELLO
     *  answer can bring the session back. */
    void probeHome(uint32_t shard);
    /** Send queued op @p token by the current routing. */
    void reroute(uint64_t token);
    void sendHello(const ConnPtr &conn);
    uint64_t issue(PendingOp op);
    void enqueue(uint64_t token, const ConnPtr &conn);
    void pumpSendq(const ConnPtr &conn);
    void encodeRequest(uint64_t token, PendingOp &op, SessionConn &conn);
    void flushTx(const ConnPtr &conn);
    void readAndParse(const ConnPtr &conn);
    void handleReply(const ConnPtr &conn,
                     const net::ClientReplyMsg &reply);
    /** Adopt count/addresses a reply advertises. @return anything new? */
    bool adoptMap(const net::ClientReplyMsg &reply);
    void markDead(const ConnPtr &conn);
    void complete(uint64_t token, OpResult result);
    void expireOps(TimeNs now);
    /** poll() all live sockets for up to @p timeout_ms. */
    void block(int timeout_ms);

    /** A shard's resolved connection; home: it is the home replica's. */
    struct Route
    {
        ConnPtr conn;
        bool home = false;
    };

    uint32_t requestedCredits_;
    bool windowOverridden_ = false;
    uint16_t seedPort_;
    ConnPtr seed_;                   ///< the latest socket to seedPort_
    std::vector<ConnPtr> conns_;             ///< every live socket
    std::map<uint32_t, Route> route_;        ///< shard -> connection
    std::map<uint16_t, TimeNs> holdoff_;     ///< port -> no redial before
    TimeNs nextHomeProbe_ = 0;
    ShardAddressMap addrs_;
    /** The adopted slot map. Until a reply teaches one: epoch 0 with one
     *  shard, so every op goes to the seed. */
    SlotMap map_{0, 1, std::vector<uint16_t>(kNumSlots)};
    uint64_t mapGen_ = 0;    ///< bumped whenever adoptMap learns anything
    uint64_t nextReqId_ = 1; ///< per-session sequence numbers
    std::map<uint64_t, PendingOp> ops_;      ///< in flight or queued
    std::map<uint64_t, OpResult> results_;   ///< completed, not taken
};

/**
 * Synchronous multi-shard KV client: read/write/cas as blocking calls,
 * as an application would use the service. A thin wrapper over one
 * owned KvSessionClient — each call issues the async op and waits on
 * its token — so routing, map adoption, dialing and the WrongShard
 * reroute loop are the session client's, one implementation behind
 * both faces.
 */
class KvClient
{
  public:
    /** Reroute attempts per op before surfacing RetriesExhausted. */
    static constexpr int kMaxRouteAttempts =
        KvSessionClient::kMaxRouteAttempts;

    /**
     * Connect to the deployment via the replica on @p seed_port, and
     * wait (up to 2 s) for the seed's HELLO reply, so the first op
     * already routes by the deployment's map.
     */
    explicit KvClient(uint16_t seed_port);

    bool connected() const { return session_.connected(); }

    /** @return the value, or nullopt on timeout/disconnect. */
    std::optional<Value> read(Key key, DurationNs timeout = 5_s);

    /** @return true when the write committed. */
    bool write(Key key, Value value, DurationNs timeout = 5_s);

    /** @return whether the CAS applied, or nullopt on timeout. */
    std::optional<bool> cas(Key key, Value expected, Value desired,
                            DurationNs timeout = 5_s);

    /**
     * CAS also returning the observed register value — what the lin-check
     * harnesses record (a failed CAS's history entry must carry the value
     * it observed).
     */
    std::optional<std::pair<bool, Value>>
    casObserve(Key key, Value expected, Value desired,
               DurationNs timeout = 5_s);

    /**
     * Status of the last completed call: Ok, WrongShard when no route to
     * the key's owner is known (the advertised map has no address for
     * it), or RetriesExhausted when kMaxRouteAttempts re-resolve-and-
     * reroute rounds never converged.
     */
    net::ClientReplyMsg::Status lastStatus() const { return lastStatus_; }

    /** The client's current notion of the deployment's shard count. */
    size_t numShards() const { return session_.numShards(); }

    /** The client's current shard → address map (HELLO/WrongShard fed). */
    const ShardAddressMap &addressMap() const
    {
        return session_.addressMap();
    }

    /** Epoch of the slot map the client has adopted (0 = none yet). */
    uint32_t mapEpoch() const { return session_.mapEpoch(); }

    /** The shard this client would route @p key to right now. */
    uint32_t routedShard(Key key) const { return session_.routeShard(key); }

    /** Test hook: see KvSessionClient::adoptAdvertisedMap. */
    bool adoptAdvertisedMap(const net::ClientReplyMsg &reply)
    {
        return session_.adoptAdvertisedMap(reply);
    }

  private:
    /** Wait for @p token and record its status in lastStatus_.
     *  @return the result when it completed Ok, else nullopt. */
    std::optional<KvSessionClient::OpResult> finish(uint64_t token);

    KvSessionClient session_;
    net::ClientReplyMsg::Status lastStatus_ =
        net::ClientReplyMsg::Status::Ok;
};

} // namespace hermes::app

#endif // HERMES_APP_TCP_SERVICE_HH
