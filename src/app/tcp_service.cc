#include "app/tcp_service.hh"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/logging.hh"
#include "hermes/key_state.hh"

namespace hermes::app
{

using net::ClientReplyMsg;
using net::ClientRequestMsg;

namespace
{

TimeNs
steadyNowNs()
{
    using namespace std::chrono;
    return duration_cast<nanoseconds>(
               steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

/** TCP migration pacing: a step every 500 µs of wall time, each copying
 *  everything pending; the Locked phase aborts after 30 s of steps. */
constexpr auto kMigrationStep = std::chrono::microseconds(500);
constexpr int kMigrationLockedBound = 30'000'000 / 500;

TcpKvService::TcpKvService(Protocol protocol, size_t nodes,
                           ReplicaOptions options, net::TcpConfig config,
                           size_t num_shards, uint32_t shard_id)
    : cluster_(nodes, config), protocol_(protocol),
      baseOptions_(std::move(options)), shardId_(shard_id),
      slotMap_(std::make_shared<const SlotMap>(
          SlotMap::uniform(static_cast<uint32_t>(num_shards ? num_shards
                                                            : 1))))
{
    hermes_assert(shardId_ < slotMap_->numShards);
    net::registerClientCodecs();
    membership::MembershipView initial = membership::initialView(nodes);
    for (size_t i = 0; i < nodes; ++i) {
        auto id = static_cast<NodeId>(i);
        replicas_.push_back(makeReplica(protocol_, cluster_.env(id),
                                        initial, optionsFor(id)));
        cluster_.attach(id, replicas_.back().get());
        cluster_.setClientHandler(
            id, [this, id](net::ClientConnId conn,
                           std::shared_ptr<net::Message> msg) {
                handleClientFrame(id, conn, msg);
            });
    }
}

ReplicaOptions
TcpKvService::optionsFor(NodeId id) const
{
    return durableOptions(baseOptions_, shardId_, id, [this](Key key) {
        return slotMap()->ownerOf(key);
    });
}

TcpKvService::~TcpKvService()
{
    stop();
}

void
TcpKvService::start()
{
    cluster_.start();
}

void
TcpKvService::stop()
{
    cluster_.stop();
}

void
TcpKvService::drain()
{
    cluster_.drain();
}

void
TcpKvService::restartReplica(NodeId id)
{
    hermes_assert(protocol_ == Protocol::Hermes);
    hermes_assert(!baseOptions_.wal.path.empty());
    // Serialize against the migration coordinator: it reads replica
    // stores and injects install jobs from its own thread, and must
    // never race the handle teardown in rebuild().
    std::lock_guard<std::mutex> admin(adminMutex_);
    restartFromWal(*this, membership::initialView(replicas_.size()).live,
                   id);
}

void
TcpKvService::queueJob(NodeId id, ReplicaJob job)
{
    // A replica that is down, or not started yet, has no loop to race.
    if (cluster_.running(id))
        cluster_.runOn(id, [&] { job.run(*replicas_[id]); });
    else
        job.run(*replicas_[id]);
}

Epoch
TcpKvService::viewEpoch(NodeId id)
{
    Epoch epoch = 0;
    cluster_.runOn(id,
                   [&] { epoch = replicas_[id]->hermes()->view().epoch; });
    return epoch;
}

void
TcpKvService::rebuild(NodeId id, const membership::MembershipView &view)
{
    // Destroy the old handle BEFORE building the new one: its dtor
    // detaches its log from the loop Env (which would otherwise detach
    // the replacement's) and flushes + closes the old WAL
    // before the new one scans the same file. The loop thread is down,
    // so constructing against its Env from this thread is safe.
    replicas_[id].reset();
    replicas_[id] =
        makeReplica(protocol_, cluster_.env(id), view, optionsFor(id));
    cluster_.attach(id, replicas_[id].get());
    // Re-dial the full mesh and run the replica's start(); returns once
    // the loop services injected calls again.
    cluster_.restart(id);
}

void
TcpKvService::setDeploymentMap(ShardAddressMap map)
{
    std::lock_guard<std::mutex> guard(mapMutex_);
    hermes_assert(map.size() == slotMap_->numShards);
    deploymentMap_ = std::move(map);
}

ShardAddressMap
TcpKvService::advertisedMap() const
{
    std::lock_guard<std::mutex> guard(mapMutex_);
    if (!deploymentMap_.empty())
        return deploymentMap_;
    // Standalone group: all this service can vouch for is itself.
    ShardAddressMap map(slotMap_->numShards);
    ShardPorts &own = map.at(shardId_);
    for (size_t i = 0; i < replicas_.size(); ++i)
        own.push_back(cluster_.portOf(static_cast<NodeId>(i)));
    return map;
}

std::shared_ptr<const SlotMap>
TcpKvService::slotMap() const
{
    std::lock_guard<std::mutex> guard(mapMutex_);
    return slotMap_;
}

void
TcpKvService::installMap(const SlotMap &map, ShardAddressMap ports)
{
    {
        std::lock_guard<std::mutex> guard(mapMutex_);
        hermes_assert(map.epoch >= slotMap_->epoch);
        slotMap_ = std::make_shared<const SlotMap>(map);
        deploymentMap_ = std::move(ports);
    }
    stampMapEpoch(*this, replicas_.size(), map.epoch);
}

bool
TcpKvService::replicaIsShadow(NodeId id)
{
    if (!cluster_.running(id))
        return true;
    bool shadow = false;
    cluster_.runOn(id, [&] {
        proto::HermesReplica *h = replicas_[id]->hermes();
        shadow = h != nullptr && h->isShadow();
    });
    return shadow;
}

void
TcpKvService::handleClientFrame(NodeId node, net::ClientConnId conn,
                                const std::shared_ptr<net::Message> &msg)
{
    if (msg->type() != net::MsgType::ClientRequest)
        return;
    auto &request = static_cast<ClientRequestMsg &>(*msg);
    ReplicaHandle &replica = *replicas_[node];
    uint64_t req_id = request.reqId;
    uint32_t shard = request.shard;

    // Every reply carries the map @p as it was served under (count,
    // this group's id, epoch); HELLO and WrongShard replies additionally
    // @p advertise the full address map and the slot → owner table,
    // which is what the client re-resolves its routing from. @p fill
    // sets the op's own fields.
    auto respond = [this, node, conn, req_id, shard](
                       const SlotMap &as, bool advertise, auto fill) {
        ClientReplyMsg reply;
        reply.reqId = req_id;
        reply.shard = shard;
        reply.mapShards = as.numShards;
        reply.mapShard = shardId_;
        reply.mapEpoch = as.epoch;
        if (advertise) {
            reply.mapPorts = advertisedMap();
            reply.slotOwners = as.owner;
        }
        fill(reply);
        cluster_.replyToClient(node, conn, reply);
    };

    // HELLO negotiation: no register op — the deployment map plus the
    // session's granted credit window (the transport clamped whatever
    // the client's hello requested; we are running on the serving
    // node's loop thread, so reading the transport state is safe).
    if (request.op == ClientRequestMsg::Op::Hello) {
        // A §3.4 shadow serves nothing yet: its answer waits until the
        // state transfer ends, so a session that failed over away from
        // this replica returns only once it serves again.
        proto::HermesReplica *hermes = replica.hermes();
        if (hermes != nullptr && hermes->isShadow()) {
            cluster_.env(node).setTimer(1_ms, [this, node, conn, msg] {
                handleClientFrame(node, conn, msg);
            });
            return;
        }
        respond(*slotMap(), true, [&](ClientReplyMsg &reply) {
            reply.credits = cluster_.sessionCreditsOf(node, conn);
        });
        return;
    }

    // One hold of the lock the cutover swaps the map under decides the
    // op: the checks below, then migration admission. No successor map
    // can slip in between, so an op is never acknowledged at an owner
    // that readers have already left.
    //
    // Map-epoch sanity FIRST, before the key is hashed or anything is
    // indexed with the stamp: an epoch from this service's *future*
    // (garbage, or a generation it never saw) proves the client and
    // service disagree about which map is current — serving under it
    // could split the history. An OLDER epoch is not by itself a
    // rejection: if the stamped owner still matches, the slot did not
    // move and the op is served. Then shard-map agreement, cheapest
    // first and every one BEFORE the key is hashed: (1) the client's
    // shard *count* must agree with ours — a stale or garbage count (0,
    // or another deployment generation) would otherwise alias arbitrary
    // routes; (2) the stamp must name this group's shard; (3) the key's
    // slot must be OURS under the live ownership map (after a migration
    // this differs from the uniform hash — a client still routing by
    // the old placement is redirected to the slot's new owner). A
    // client failing any of them gets an explicit rejection carrying
    // the full address map — never an assert, and never a silently
    // split history.
    std::shared_ptr<const SlotMap> map;
    bool owned = false;
    std::optional<std::function<void()>> committed =
        std::function<void()>();
    {
        std::lock_guard<std::mutex> guard(mapMutex_);
        map = slotMap_;
        owned = request.mapEpoch <= map->epoch
                && request.numShards == map->numShards && shard == shardId_
                && map->ownerOf(request.key) == shardId_;
        if (owned && migration_) {
            committed = migration_->admitOp(
                request.key, request.op != ClientRequestMsg::Op::Read,
                shardId_, node, cluster_.incarnation(node), [&] {
                    return [this, node, conn, msg] {
                        if (cluster_.running(node)) // else the socket is gone
                            cluster_.runOn(node, [&] {
                                handleClientFrame(node, conn, msg);
                            });
                    };
                });
        }
    }
    if (!owned) {
        respond(*map, true, [](ClientReplyMsg &reply) {
            reply.ok = false;
            reply.status = ClientReplyMsg::Status::WrongShard;
        });
        return;
    }
    if (!committed)
        return; // parked: it re-enters here when the move ends

    switch (request.op) {
      case ClientRequestMsg::Op::Read:
        replica.read(request.key, [respond, map](const Value &value) {
            respond(*map, false,
                    [&](ClientReplyMsg &reply) { reply.value = value; });
        });
        break;
      case ClientRequestMsg::Op::Write:
        // request.value is a ValueRef aliasing the transport's receive
        // slab: handing it down is a refcount bump, and the protocol's
        // own INV/chain/propose encode gathers from the same buffer.
        replica.write(request.key, request.value,
                      afterCommit<ReplicaHandle::WriteCallback>(
                          [respond, map] {
                              respond(*map, false, [](ClientReplyMsg &) {});
                          },
                          std::move(*committed)));
        break;
      case ClientRequestMsg::Op::Cas:
        replica.cas(request.key, request.expected, request.value,
                    afterCommit<ReplicaHandle::CasCallback>(
                        [respond, map](bool ok, const Value &seen) {
                            respond(*map, false, [&](ClientReplyMsg &reply) {
                                reply.ok = ok;
                                reply.value = seen;
                            });
                        },
                        std::move(*committed)));
        break;
      case ClientRequestMsg::Op::Hello:
        break; // handled above
    }
}

// ---------------------------------------------------------------------
// ShardedTcpDeployment
// ---------------------------------------------------------------------

ShardedTcpDeployment::ShardedTcpDeployment(Protocol protocol, size_t shards,
                                           size_t replicas_per_shard,
                                           ReplicaOptions options,
                                           net::TcpConfig config)
    : protocol_(protocol), baseOptions_(options), baseConfig_(config),
      replicasPerShard_(replicas_per_shard),
      slotMap_(SlotMap::uniform(static_cast<uint32_t>(shards))),
      migration_(*this, SIZE_MAX, kMigrationLockedBound)
{
    hermes_assert(shards > 0 && replicas_per_shard > 0);
    for (size_t s = 0; s < shards; ++s)
        addGroup(shards);
    for (auto &group : groups_)
        group->setDeploymentMap(map_);
}

void
ShardedTcpDeployment::addGroup(size_t shards)
{
    size_t s = groups_.size();
    net::TcpConfig config = baseConfig_;
    config.basePort =
        static_cast<uint16_t>(baseConfig_.basePort + s * replicasPerShard_);
    groups_.push_back(std::make_unique<TcpKvService>(
        protocol_, replicasPerShard_, baseOptions_, config, shards,
        static_cast<uint32_t>(s)));
    groups_.back()->attachMigration(&migration_);
    map_.emplace_back();
    for (size_t r = 0; r < replicasPerShard_; ++r)
        map_.back().push_back(groups_[s]->portOf(static_cast<NodeId>(r)));
}

void
ShardedTcpDeployment::start()
{
    for (auto &group : groups_)
        group->start();
}

void
ShardedTcpDeployment::stop()
{
    for (auto &group : groups_)
        group->stop();
}

bool
ShardedTcpDeployment::beginMigration(std::vector<uint32_t> slots,
                                     uint32_t from, uint32_t to)
{
    hermes_assert(from < groups_.size() && to < groups_.size());
    hermes_assert(from != to);
    std::scoped_lock admin(groups_[from]->adminLock(),
                           groups_[to]->adminLock());
    return migration_.begin(slotMap_, std::move(slots), from, to);
}

size_t
ShardedTcpDeployment::migrateSlots(std::vector<uint32_t> slots,
                                   uint32_t from, uint32_t to)
{
    uint64_t before = migration_.slotsMigrated();
    for (bool live = beginMigration(std::move(slots), from, to); live;) {
        std::this_thread::sleep_for(kMigrationStep);
        std::scoped_lock admin(groups_[from]->adminLock(),
                               groups_[to]->adminLock());
        live = migration_.step();
    }
    return migration_.slotsMigrated() - before;
}

std::vector<MigrationRuntime::Replica>
ShardedTcpDeployment::sourceReplicas(uint32_t shard)
{
    TcpKvService &group = *groups_[shard];
    std::vector<Replica> live;
    for (size_t r = 0; r < group.numNodes(); ++r) {
        auto id = static_cast<NodeId>(r);
        // The store itself is read from this thread: the seqlocked
        // lock-free path is safe against the replica's loop writing.
        if (group.alive(id))
            live.push_back({id, group.cluster().incarnation(id),
                            group.replicaIsShadow(id),
                            &group.replica(id).kvStore()});
    }
    return live;
}

void
ShardedTcpDeployment::copyToDestination(uint32_t shard,
                                        const std::vector<Entry> &entries)
{
    // Every live destination replica adopts the entries on its own loop
    // (newest-timestamp-wins, so racing deltas and re-sends are
    // idempotent), and logs them before this returns: once the cutover
    // lets it serve them, its replies to reads of these Valid keys wait
    // for no record (hermes/replica.cc). A crashed destination replica
    // is healed later by its WAL replay + shadow sync from a live peer.
    TcpKvService &dst = *groups_[shard];
    for (size_t r = 0; r < dst.numNodes(); ++r) {
        auto id = static_cast<NodeId>(r);
        if (!dst.alive(id))
            continue;
        uint64_t logged = 0;
        dst.cluster().runOn(id, [&] {
            for (const Entry &e : entries)
                dst.replica(id).applyMigratedEntry(e.key, e.value, e.ts,
                                                   e.flags);
            if (store::Wal *wal = dst.replica(id).wal())
                logged = wal->appendedSeq();
        });
        if (logged > 0 && dst.alive(id))
            dst.replica(id).wal()->waitDurable(logged);
    }
}

void
ShardedTcpDeployment::nudge(NodeId replica, Key key)
{
    TcpKvService &src = *groups_[migration_.from()];
    src.cluster().post(replica, [&src, replica, key] {
        src.replica(replica).read(key, [](const Value &) {});
    });
}

void
ShardedTcpDeployment::installSuccessor(const std::vector<uint32_t> &slots,
                                       uint32_t to)
{
    // Epoch+1 with the moved slots repointed. Destination first — it
    // must recognize its new ownership before any client is redirected
    // at it — then the bystander groups, then the source last. Until the
    // source installs it, ops on the moved slots park there (never
    // serving stale data), so no window exists in which both groups
    // serve the same slot.
    uint32_t from = migration_.from();
    SlotMap next = slotMap_.withSlotsMovedTo(slots, to);
    groups_[to]->installMap(next, map_);
    for (size_t s = 0; s < groups_.size(); ++s) {
        if (s != from && s != to)
            groups_[s]->installMap(next, map_);
    }
    groups_[from]->installMap(next, map_);
    slotMap_ = next;
}

uint32_t
ShardedTcpDeployment::addShard()
{
    auto s = static_cast<uint32_t>(groups_.size());
    addGroup(s + 1);

    // The newcomer owns ZERO slots under the successor map. Install it
    // on the new group BEFORE it serves (its constructor defaulted to a
    // uniform map that would claim slots it does not own), then start
    // it, then teach the incumbents — whose clients keep routing under
    // the old epoch until a reply advertises the new one.
    SlotMap next = slotMap_.withShardCount(s + 1);
    groups_[s]->installMap(next, map_);
    groups_[s]->start();
    for (uint32_t g = 0; g < s; ++g)
        groups_[g]->installMap(next, map_);
    slotMap_ = next;
    return s;
}

void
ShardedTcpDeployment::removeShard()
{
    hermes_assert(groups_.size() > 1);
    auto s = static_cast<uint32_t>(groups_.size() - 1);
    hermes_assert(slotMap_.slotsOwnedBy(s).empty()
                  && "migrate the shard's slots away before removal");
    groups_.back()->stop();
    groups_.pop_back();
    map_.pop_back();
    SlotMap next = slotMap_.withShardCount(s);
    for (auto &group : groups_)
        group->installMap(next, map_);
    slotMap_ = next;
}

// ---------------------------------------------------------------------
// KvClient
// ---------------------------------------------------------------------

KvClient::KvClient(uint16_t seed_port) : session_(seed_port)
{
    // HELLO negotiation: adopt the deployment's map before the first op.
    // A service that never answers leaves the one-shard default, and
    // WrongShard replies teach the map later.
    session_.awaitHello();
}

std::optional<KvSessionClient::OpResult>
KvClient::finish(uint64_t token)
{
    auto result = session_.wait(token);
    lastStatus_ = result ? result->status : ClientReplyMsg::Status::Ok;
    if (!result || !result->completed
            || result->status != ClientReplyMsg::Status::Ok)
        return std::nullopt;
    return result;
}

std::optional<Value>
KvClient::read(Key key, DurationNs timeout)
{
    auto result = finish(session_.readAsync(key, timeout));
    if (!result)
        return std::nullopt;
    return std::move(result->value);
}

bool
KvClient::write(Key key, Value value, DurationNs timeout)
{
    return finish(session_.writeAsync(key, std::move(value), timeout))
        .has_value();
}

std::optional<bool>
KvClient::cas(Key key, Value expected, Value desired, DurationNs timeout)
{
    auto observed =
        casObserve(key, std::move(expected), std::move(desired), timeout);
    if (!observed)
        return std::nullopt;
    return observed->first;
}

std::optional<std::pair<bool, Value>>
KvClient::casObserve(Key key, Value expected, Value desired,
                     DurationNs timeout)
{
    auto result = finish(session_.casAsync(key, std::move(expected),
                                           std::move(desired), timeout));
    if (!result)
        return std::nullopt;
    return std::make_pair(result->casApplied, std::move(result->value));
}

// ---------------------------------------------------------------------
// KvSessionClient
// ---------------------------------------------------------------------

KvSessionClient::KvSessionClient(uint16_t seed_port, uint32_t credits)
    : requestedCredits_(credits), seedPort_(seed_port)
{
    net::registerClientCodecs();
    // Generous dial budget: the seed is the bootstrap, a service still
    // binding deserves the wait. dial() pipelines the session's HELLO,
    // so the window grant and the shard map stream in with the first
    // replies — nothing here blocks on them. It also sets seed_.
    dial(seed_port, 100);
}

KvSessionClient::~KvSessionClient()
{
    for (const ConnPtr &conn : conns_)
        if (conn->fd >= 0)
            close(conn->fd);
}

bool
KvSessionClient::connected() const
{
    return seed_ && seed_->alive;
}

void
KvSessionClient::awaitHello(DurationNs timeout)
{
    const TimeNs deadline = steadyNowNs() + timeout;
    while (connected() && ops_.count(seed_->helloToken)
           && steadyNowNs() < deadline) {
        block(1);
        progress();
    }
}

KvSessionClient::ConnPtr
KvSessionClient::dial(uint16_t port, int connect_attempts)
{
    // The hello's third word is the requested credit window; the server
    // clamps it and reports the grant in the HELLO reply we pipeline
    // right below.
    int fd = net::dialClient(port, connect_attempts, requestedCredits_);
    if (fd < 0) {
        holdoff_[port] = steadyNowNs() + kRedialHoldoff;
        return nullptr;
    }
    int flags = fcntl(fd, F_GETFL, 0);
    fcntl(fd, F_SETFL, flags | O_NONBLOCK);

    auto conn = std::make_shared<SessionConn>();
    conn->fd = fd;
    conn->port = port;
    conn->alive = true;
    conn->dialedAt = steadyNowNs();
    if (port == seedPort_)
        seed_ = conn; // a redialed seed (home back after a restart)
    // Believed window until the HELLO grant answers: what we asked for,
    // or optimistic when we asked for the default. Overshooting is safe
    // by design — the server stops reading an over-limit session and
    // the overflow waits in kernel buffers.
    conn->window = windowOverridden_
                       ? requestedCredits_
                       : (requestedCredits_ ? requestedCredits_ : 256);
    conns_.push_back(conn);
    sendHello(conn);
    return conn;
}

void
KvSessionClient::sendHello(const ConnPtr &conn)
{
    PendingOp hello;
    hello.op = ClientRequestMsg::Op::Hello;
    hello.internal = true;
    hello.deadline = steadyNowNs() + 5_s;
    hello.conn = conn;
    uint64_t token = nextReqId_++;
    conn->helloToken = token;
    ops_.emplace(token, std::move(hello));
    enqueue(token, conn);
}

size_t
KvSessionClient::homeIndex(uint32_t shard) const
{
    // The seed's rank in its own shard: the seed itself there, the
    // replica of the same rank in every other shard.
    size_t rank = seedPort_;
    for (const ShardPorts &ports : addrs_) {
        auto seed = std::find(ports.begin(), ports.end(), seedPort_);
        if (seed != ports.end()) {
            rank = static_cast<size_t>(seed - ports.begin());
            break;
        }
    }
    return rank % addrs_[shard].size();
}

bool
KvSessionClient::heldOff(uint16_t port, TimeNs now) const
{
    auto held = holdoff_.find(port);
    return held != holdoff_.end() && now < held->second;
}

KvSessionClient::ConnPtr
KvSessionClient::liveConnTo(uint16_t port) const
{
    // Sessions multiplex: shards sharing a replica after a map change,
    // or the seed itself, share one socket — never dial a port twice.
    for (const ConnPtr &conn : conns_)
        if (conn->alive && conn->port == port)
            return conn;
    return nullptr;
}

KvSessionClient::ConnPtr
KvSessionClient::connFor(uint32_t shard, TimeNs deadline)
{
    auto it = route_.find(shard);
    if (it != route_.end() && it->second.conn->alive) {
        const ConnPtr &conn = it->second.conn;
        // A socket whose HELLO stays unanswered (a replica whose loop is
        // down behind a listener still bound) is routed to only until
        // it is overdue; then the shard re-resolves.
        if (conn->ready || steadyNowNs() - conn->dialedAt < kHelloWait) {
            if (!it->second.home)
                probeHome(shard);
            return conn;
        }
    }
    if (it != route_.end())
        route_.erase(it);
    if (shard < addrs_.size() && !addrs_[shard].empty()) {
        const ShardPorts &ports = addrs_[shard];
        const size_t home = homeIndex(shard);
        const TimeNs now = steadyNowNs();
        auto portAt = [&](size_t i) {
            return ports[(home + i) % ports.size()];
        };
        auto use = [&](const ConnPtr &conn, size_t i) {
            route_[shard] = Route{conn, i == 0};
            return conn;
        };
        // Home-first: a serving socket, else one still awaiting its
        // HELLO answer that is not overdue.
        for (size_t i = 0; i < ports.size(); ++i) {
            ConnPtr conn = liveConnTo(portAt(i));
            if (conn && conn->ready)
                return use(conn, i);
        }
        for (size_t i = 0; i < ports.size(); ++i) {
            ConnPtr conn = liveConnTo(portAt(i));
            if (conn && now - conn->dialedAt < kHelloWait)
                return use(conn, i);
        }
        for (size_t i = 0; i < ports.size(); ++i) {
            uint16_t port = portAt(i);
            if (liveConnTo(port) || heldOff(port, now))
                continue;
            // Few dial attempts: the deployment is already up when a map
            // advertises it, so a refusing port is a dead replica — fail
            // over to the next one fast. Failed attempts sleep on the
            // backoff (~5/10/20 ms gaps at this depth), so size the count
            // to the op's remaining budget, and dial no more once it is
            // spent: the seed fallback below still answers in time.
            TimeNs remaining = deadline - steadyNowNs();
            if (remaining <= 0)
                break;
            int attempts = static_cast<int>(
                std::min<TimeNs>(3, remaining / 20_ms + 1));
            if (ConnPtr conn = dial(port, attempts))
                return use(conn, i);
        }
        // Nothing better: an overdue socket may still answer.
        for (size_t i = 0; i < ports.size(); ++i) {
            if (ConnPtr conn = liveConnTo(portAt(i)))
                return use(conn, i);
        }
    }
    // No (live) address: fall back to the seed — uncached, so the next
    // op re-resolves — whose WrongShard reply teaches the route.
    return connected() ? seed_ : nullptr;
}

void
KvSessionClient::probeHome(uint32_t shard)
{
    TimeNs now = steadyNowNs();
    if (now < nextHomeProbe_ || shard >= addrs_.size()
            || addrs_[shard].empty())
        return;
    nextHomeProbe_ = now + kHomeProbe;
    uint16_t home = addrs_[shard][homeIndex(shard)];
    if (liveConnTo(home) || heldOff(home, now))
        return; // a probe already waits on its HELLO answer
    // One attempt, no backoff sleep: its HELLO answer, whenever home
    // serves again, re-resolves the route (handleReply).
    dial(home, 1);
}

uint16_t
KvSessionClient::servingPort(uint32_t shard) const
{
    auto it = route_.find(shard);
    return it != route_.end() && it->second.conn->alive
               ? it->second.conn->port
               : 0;
}

uint64_t
KvSessionClient::readAsync(Key key, DurationNs timeout)
{
    PendingOp op;
    op.op = ClientRequestMsg::Op::Read;
    op.key = key;
    op.deadline = steadyNowNs() + timeout;
    return issue(std::move(op));
}

uint64_t
KvSessionClient::writeAsync(Key key, Value value, DurationNs timeout)
{
    PendingOp op;
    op.op = ClientRequestMsg::Op::Write;
    op.key = key;
    op.value = std::move(value);
    op.deadline = steadyNowNs() + timeout;
    return issue(std::move(op));
}

uint64_t
KvSessionClient::casAsync(Key key, Value expected, Value desired,
                          DurationNs timeout)
{
    PendingOp op;
    op.op = ClientRequestMsg::Op::Cas;
    op.key = key;
    op.expected = std::move(expected);
    op.value = std::move(desired);
    op.deadline = steadyNowNs() + timeout;
    return issue(std::move(op));
}

uint64_t
KvSessionClient::issue(PendingOp op)
{
    uint64_t token = nextReqId_++;
    ops_.emplace(token, std::move(op));
    reroute(token);
    return token;
}

void
KvSessionClient::reroute(uint64_t token)
{
    PendingOp &op = ops_.at(token);
    ConnPtr conn = connFor(routeShard(op.key), op.deadline);
    op.conn = conn;
    if (!conn) {
        // No route anywhere (seed gone too): fail it immediately, the
        // token still redeems a (failed) result.
        complete(token, OpResult{ClientReplyMsg::Status::WrongShard,
                                 false, false, {}});
        return;
    }
    enqueue(token, conn);
}

void
KvSessionClient::enqueue(uint64_t token, const ConnPtr &conn)
{
    conn->sendq.push_back(token);
    pumpSendq(conn);
    flushTx(conn);
}

void
KvSessionClient::pumpSendq(const ConnPtr &conn)
{
    while (!conn->sendq.empty()
           && (conn->window == 0 || conn->inflight < conn->window)) {
        uint64_t token = conn->sendq.front();
        conn->sendq.pop_front();
        auto it = ops_.find(token);
        if (it == ops_.end())
            continue; // expired or rerouted while queued
        encodeRequest(token, it->second, *conn);
        ++conn->inflight;
    }
}

void
KvSessionClient::encodeRequest(uint64_t token, PendingOp &op,
                               SessionConn &conn)
{
    // Stamp the routing at SEND time, under the map the client believes
    // right now — a reply that proves the stamp stale comes back as
    // WrongShard and reroutes this op individually.
    op.sentShard = routeShard(op.key);
    op.sentMapGen = mapGen_;
    ClientRequestMsg msg;
    msg.op = op.op;
    msg.reqId = token;
    msg.key = op.key;
    msg.shard = op.sentShard;
    msg.numShards = map_.numShards;
    msg.mapEpoch = map_.epoch;
    // Ownerless views of the op's own strings, not copies: the message
    // is encoded right here and dies before the op can.
    msg.value = ValueRef(std::string_view(op.value), nullptr);
    msg.expected = ValueRef(std::string_view(op.expected), nullptr);
    net::appendClientFrame(msg, conn.tx);
}

void
KvSessionClient::flushTx(const ConnPtr &conn)
{
    if (!conn->alive)
        return;
    size_t written = 0;
    while (written < conn->tx.size()) {
        // MSG_NOSIGNAL: a crashed shard's socket must surface EPIPE to
        // markDead(), not kill the process with SIGPIPE.
        ssize_t n = send(conn->fd, conn->tx.data() + written,
                         conn->tx.size() - written, MSG_NOSIGNAL);
        if (n > 0) {
            written += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break; // kernel buffer full: keep the tail for later
        markDead(conn);
        return;
    }
    conn->tx.erase(conn->tx.begin(),
                   conn->tx.begin() + static_cast<long>(written));
}

void
KvSessionClient::readAndParse(const ConnPtr &conn)
{
    if (!conn->alive)
        return;
    uint8_t buf[65536];
    for (;;) {
        ssize_t n = read(conn->fd, buf, sizeof(buf));
        if (n > 0) {
            conn->rx.insert(conn->rx.end(), buf, buf + n);
            if (static_cast<size_t>(n) == sizeof(buf))
                continue;
            break;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        markDead(conn);
        return;
    }

    size_t walked =
        net::walkFrames(conn->rx, [&](std::shared_ptr<net::Message> msg) {
            if (msg->type() == net::MsgType::ClientReply)
                handleReply(conn, static_cast<const ClientReplyMsg &>(*msg));
            return conn->alive; // handleReply may find the conn dead
        });
    conn->rx.erase(conn->rx.begin(),
                   conn->rx.begin() + static_cast<long>(walked));
}

bool
KvSessionClient::adoptMap(const ClientReplyMsg &reply)
{
    if (reply.mapShards == 0)
        return false; // a service that advertises nothing teaches nothing
    // Strict epoch adoption: a reply stamped with a map OLDER than the
    // one already adopted is a laggard (e.g. a replica answering just
    // before it installs a cutover). Believing it would re-route ops to
    // the migration source and ping-pong. Equal epochs still teach —
    // independent deployments both sit at epoch 1 and differ only in
    // shard count / addresses.
    if (reply.mapEpoch < map_.epoch)
        return false;
    bool learned = false;
    if (reply.mapEpoch > map_.epoch) {
        map_.epoch = reply.mapEpoch;
        learned = true;
    }
    // Only HELLO and WrongShard replies carry the owner table; a new
    // count without one means the uniform placement over that count.
    bool table = reply.slotOwners.size() == kNumSlots;
    if (reply.mapShards != map_.numShards
            || (table && reply.slotOwners != map_.owner)) {
        map_.numShards = reply.mapShards;
        map_.owner = table ? reply.slotOwners
                           : SlotMap::uniform(reply.mapShards).owner;
        // Ownership moved: the sockets stay up (they multiplex), only
        // the routes re-resolve.
        route_.clear();
        learned = true;
    }
    if (!reply.mapPorts.empty()) {
        if (addrs_.size() != reply.mapPorts.size()) {
            addrs_.resize(reply.mapPorts.size());
            learned = true;
        }
        for (size_t s = 0; s < reply.mapPorts.size(); ++s) {
            // Merge: a standalone group advertises only its own entry;
            // keep addresses other replies taught us.
            if (!reply.mapPorts[s].empty()
                    && reply.mapPorts[s] != addrs_[s]) {
                addrs_[s] = reply.mapPorts[s];
                learned = true;
            }
        }
    }
    if (learned)
        ++mapGen_;
    return learned;
}

void
KvSessionClient::handleReply(const ConnPtr &conn,
                             const ClientReplyMsg &reply)
{
    // Every request sent on this conn gets exactly one reply — the
    // credit accounting holds even for replies whose op has already
    // expired client-side.
    if (conn->inflight > 0)
        --conn->inflight;
    adoptMap(reply);
    if (reply.credits > 0 && !windowOverridden_)
        conn->window = reply.credits; // the HELLO grant
    if (reply.reqId == conn->helloToken && !conn->ready) {
        // The replica serves: a shard failed over away from it (or
        // waiting on an overdue socket) re-resolves, home first.
        conn->ready = true;
        route_.clear();
    }
    pumpSendq(conn);

    auto it = ops_.find(reply.reqId);
    if (it == ops_.end())
        return; // expired or a conn-death completion raced the reply
    PendingOp &op = it->second;
    if (op.internal) {
        ops_.erase(it); // HELLO bookkeeping: no user-visible result
        return;
    }
    if (reply.status != ClientReplyMsg::Status::WrongShard) {
        complete(reply.reqId, OpResult{reply.status, true, reply.ok,
                                       reply.value.str()});
        return;
    }

    // WrongShard: adopt (done above), re-resolve, and re-issue the SAME
    // token toward the owning shard's address — bounded by the op's
    // attempt budget and, via expireOps, its deadline. A rejection
    // stamped OLDER than the adopted epoch is cutover lag (the group has
    // not installed the successor map yet), not a mis-route: retry
    // without consuming an attempt, bounded by the op deadline alone.
    uint32_t shard = routeShard(op.key);
    if (reply.mapEpoch >= map_.epoch) {
        bool reachable = shard < addrs_.size() && !addrs_[shard].empty();
        // Dead end: the map names no address for the owner, or nothing
        // was learned since the send and the same shard re-resolved —
        // the owner keeps rejecting us, and an identical retry cannot
        // converge.
        if (!reachable
                || (op.sentMapGen == mapGen_ && shard == op.sentShard)) {
            complete(reply.reqId,
                     OpResult{ClientReplyMsg::Status::WrongShard, true,
                              false, {}});
            return;
        }
        if (++op.attempts >= kMaxRouteAttempts) {
            complete(reply.reqId,
                     OpResult{ClientReplyMsg::Status::RetriesExhausted,
                              true, false, {}});
            return;
        }
    }
    ConnPtr next = connFor(shard, op.deadline);
    if (!next) {
        complete(reply.reqId, OpResult{ClientReplyMsg::Status::WrongShard,
                                       true, false, {}});
        return;
    }
    op.conn = next;
    enqueue(reply.reqId, next);
}

void
KvSessionClient::markDead(const ConnPtr &conn)
{
    if (!conn->alive)
        return;
    conn->alive = false;
    close(conn->fd);
    conn->fd = -1;
    holdoff_[conn->port] = steadyNowNs() + kRedialHoldoff;
    for (auto it = route_.begin(); it != route_.end();) {
        if (it->second.conn == conn)
            it = route_.erase(it);
        else
            ++it;
    }
    conns_.erase(std::remove(conns_.begin(), conns_.end(), conn),
                 conns_.end());
    // Ops it never sent, and reads, fail over; a write or CAS it sent
    // may or may not have applied, so it completes not-completed (a
    // replay elsewhere could apply it twice). Tokens still redeem.
    std::vector<uint64_t> unsent(conn->sendq.begin(), conn->sendq.end());
    std::sort(unsent.begin(), unsent.end());
    std::vector<uint64_t> doomed;
    for (const auto &kv : ops_)
        if (kv.second.conn == conn)
            doomed.push_back(kv.first);
    for (uint64_t token : doomed) {
        auto it = ops_.find(token);
        if (it == ops_.end() || it->second.conn != conn)
            continue; // settled by a nested markDead while rerouting
        if (it->second.internal) {
            ops_.erase(it);
        } else if (it->second.op == ClientRequestMsg::Op::Read
                   || std::binary_search(unsent.begin(), unsent.end(),
                                         token)) {
            reroute(token);
        } else {
            complete(token, OpResult{ClientReplyMsg::Status::Ok, false,
                                     false, {}});
        }
    }
}

void
KvSessionClient::complete(uint64_t token, OpResult result)
{
    ops_.erase(token);
    results_.emplace(token, std::move(result));
}

void
KvSessionClient::expireOps(TimeNs now)
{
    std::vector<uint64_t> expired;
    for (const auto &kv : ops_)
        if (now >= kv.second.deadline)
            expired.push_back(kv.first);
    for (uint64_t token : expired) {
        // If it was sent, its reply may still arrive — handleReply's
        // unconditional credit decrement keeps the window honest; if it
        // was only queued, pumpSendq skips tokens no longer in ops_.
        if (ops_.at(token).internal)
            ops_.erase(token);
        else
            complete(token, OpResult{ClientReplyMsg::Status::Ok, false,
                                     false, {}});
    }
}

void
KvSessionClient::progress()
{
    // Snapshot: markDead() edits conns_ under our feet.
    std::vector<ConnPtr> live = conns_;
    for (const ConnPtr &conn : live) {
        if (!conn->alive)
            continue;
        flushTx(conn);
        readAndParse(conn);
        if (conn->alive) {
            pumpSendq(conn);
            flushTx(conn);
        }
    }
    expireOps(steadyNowNs());
}

bool
KvSessionClient::done(uint64_t token)
{
    progress();
    return ops_.find(token) == ops_.end();
}

std::optional<KvSessionClient::OpResult>
KvSessionClient::wait(uint64_t token)
{
    while (!done(token))
        block(1);
    return take(token);
}

std::optional<KvSessionClient::OpResult>
KvSessionClient::take(uint64_t token)
{
    auto it = results_.find(token);
    if (it == results_.end())
        return std::nullopt;
    OpResult result = std::move(it->second);
    results_.erase(it);
    return result;
}

size_t
KvSessionClient::waitAll()
{
    while (inflight() > 0) {
        progress();
        if (inflight() > 0)
            block(1);
    }
    size_t ok = 0;
    for (const auto &kv : results_)
        if (kv.second.completed
                && kv.second.status == ClientReplyMsg::Status::Ok)
            ++ok;
    results_.clear();
    return ok;
}

size_t
KvSessionClient::inflight() const
{
    size_t n = 0;
    for (const auto &kv : ops_)
        if (!kv.second.internal)
            ++n;
    return n;
}

uint32_t
KvSessionClient::grantedCredits() const
{
    return seed_ ? seed_->window : requestedCredits_;
}

std::vector<int>
KvSessionClient::fds() const
{
    std::vector<int> out;
    for (const ConnPtr &conn : conns_)
        if (conn->alive)
            out.push_back(conn->fd);
    return out;
}

void
KvSessionClient::overrideWindow(uint32_t w)
{
    windowOverridden_ = true;
    requestedCredits_ = w; // future dials believe it too
    for (const ConnPtr &conn : conns_) {
        conn->window = w;
        pumpSendq(conn);
        flushTx(conn);
    }
}

void
KvSessionClient::block(int timeout_ms)
{
    std::vector<pollfd> pfds;
    for (const ConnPtr &conn : conns_) {
        if (!conn->alive)
            continue;
        short events = POLLIN;
        if (!conn->tx.empty())
            events |= POLLOUT;
        pfds.push_back(pollfd{conn->fd, events, 0});
    }
    if (pfds.empty()) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(timeout_ms));
        return;
    }
    poll(pfds.data(), pfds.size(), timeout_ms);
}

} // namespace hermes::app
