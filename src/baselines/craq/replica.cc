#include "baselines/craq/replica.hh"

#include "common/logging.hh"
#include "store/wal.hh"

namespace hermes::craq
{

using store::KeyRecord;

namespace
{
/** KeyMeta conventions for CRAQ: state 1 = dirty, aux = committed ver. */
constexpr uint8_t kClean = 0;
constexpr uint8_t kDirty = 1;
} // namespace

void
registerCraqCodecs()
{
    net::registerMessage<ForwardMsg>();
    net::registerMessage<WriteMsg>();
    net::registerMessage<WriteAckMsg>();
    net::registerMessage<VersionQueryMsg>();
    net::registerMessage<VersionReplyMsg>();
}

CraqReplica::CraqReplica(net::Env &env, store::KvStore &store,
                         membership::MembershipView initial)
    : env_(env), store_(store), view_(std::move(initial))
{
    hermes_assert(!view_.live.empty());
    registerCraqCodecs();
}

NodeId
CraqReplica::successor() const
{
    for (size_t i = 0; i + 1 < view_.live.size(); ++i)
        if (view_.live[i] == env_.self())
            return view_.live[i + 1];
    return kInvalidNode;
}

NodeId
CraqReplica::predecessor() const
{
    for (size_t i = 1; i < view_.live.size(); ++i)
        if (view_.live[i] == env_.self())
            return view_.live[i - 1];
    return kInvalidNode;
}

// ---------------------------------------------------------------------
// Client API
// ---------------------------------------------------------------------

void
CraqReplica::read(Key key, ReadCallback cb)
{
    store::ReadResult current = store_.read(key);
    bool clean = !current.found || current.meta.state == kClean;
    if (clean || isTail()) {
        // Tail reads are always consistent: the tail *is* the commit point.
        ++stats_.readsLocal;
        cb(current.value);
        return;
    }
    // Dirty read (§2.5): the committed version must be learned from the
    // tail before answering, or linearizability breaks.
    ++stats_.readsViaTail;
    uint64_t req_id = nextReqId_++;
    ClientOp op;
    op.key = key;
    op.readCb = std::move(cb);
    clientOps_[req_id] = std::move(op);
    auto query = std::make_shared<VersionQueryMsg>();
    query->epoch = view_.epoch;
    query->key = key;
    query->reqId = req_id;
    env_.send(tail(), query);
}

void
CraqReplica::write(Key key, ValueRef value, WriteCallback cb)
{
    uint64_t req_id = nextReqId_++;
    ClientOp op;
    op.key = key;
    op.writeCb = std::move(cb);
    clientOps_[req_id] = std::move(op);
    if (isHead()) {
        headIngest(key, std::move(value), env_.self(), req_id);
        return;
    }
    // All writes start at the head: CRAQ's writes are not decentralized.
    auto fwd = std::make_shared<ForwardMsg>();
    fwd->epoch = view_.epoch;
    fwd->key = key;
    fwd->value = std::move(value);
    fwd->origin = env_.self();
    fwd->reqId = req_id;
    env_.send(head(), fwd);
}

// ---------------------------------------------------------------------
// Chain machinery
// ---------------------------------------------------------------------

void
CraqReplica::headIngest(Key key, ValueRef value, NodeId origin, uint64_t req_id)
{
    // Version assignment + dirty-list append: two store touches.
    env_.chargeStoreAccess(2);
    uint32_t version = store_.withKey(key, [&](KeyRecord &rec) {
        rec.meta().ts.version += 1;
        rec.meta().state = kDirty;
        return rec.meta().ts.version;
    });
    dirty_[key].emplace_back(version, value);
    // Durability contract: the head persists the version it just minted
    // before propagating it down the chain.
    if (store::Wal *wal = store_.wal())
        wal->append(key, Timestamp{version, 0}, 0, value);

    if (view_.live.size() == 1) {
        commitLocal(key, version);
        completeWrite(origin, req_id);
        return;
    }
    auto write_msg = std::make_shared<WriteMsg>();
    write_msg->epoch = view_.epoch;
    write_msg->key = key;
    write_msg->version = version;
    write_msg->value = std::move(value);
    write_msg->origin = origin;
    write_msg->reqId = req_id;
    env_.send(successor(), write_msg);
}

void
CraqReplica::commitLocal(Key key, uint32_t version)
{
    env_.chargeStoreAccess(2); // committed-value install + list trim
    auto it = dirty_.find(key);
    // Consume every dirty version <= the committed one; the newest of
    // them is the value the committed key now holds.
    ValueRef committed_value;
    uint32_t popped_version = 0;
    if (it != dirty_.end()) {
        DirtyList &list = it->second;
        while (!list.empty() && list.front().first <= version) {
            committed_value = std::move(list.front().second);
            popped_version = list.front().first;
            list.pop_front();
        }
    }
    bool still_dirty = it != dirty_.end() && !it->second.empty();
    store_.withKey(key, [&](KeyRecord &rec) {
        // Guard against reordered acknowledgments: never regress the
        // committed value to an older version.
        if (popped_version > rec.meta().aux)
            rec.setValue(committed_value);
        if (rec.meta().aux < version)
            rec.meta().aux = version;
        rec.meta().state = still_dirty ? kDirty : kClean;
    });
    if (it != dirty_.end() && it->second.empty())
        dirty_.erase(it);
}

void
CraqReplica::completeWrite(NodeId origin, uint64_t req_id)
{
    if (origin != env_.self())
        return;
    auto it = clientOps_.find(req_id);
    if (it == clientOps_.end())
        return;
    WriteCallback cb = std::move(it->second.writeCb);
    clientOps_.erase(it);
    ++stats_.writesCommitted;
    if (cb)
        cb();
}

// ---------------------------------------------------------------------
// Message handlers
// ---------------------------------------------------------------------

void
CraqReplica::onMessage(const net::MessagePtr &msg)
{
    if (msg->epoch != view_.epoch)
        return; // epoch-stale, as in all membership-based protocols here
    switch (msg->type()) {
      case net::MsgType::CraqForward:
        onForward(static_cast<const ForwardMsg &>(*msg));
        break;
      case net::MsgType::CraqWrite:
        onWrite(static_cast<const WriteMsg &>(*msg));
        break;
      case net::MsgType::CraqWriteAck:
        onWriteAck(static_cast<const WriteAckMsg &>(*msg));
        break;
      case net::MsgType::CraqVersionQuery:
        onVersionQuery(static_cast<const VersionQueryMsg &>(*msg));
        break;
      case net::MsgType::CraqVersionReply:
        onVersionReply(static_cast<const VersionReplyMsg &>(*msg));
        break;
      default:
        panic("CraqReplica got message type %u",
              static_cast<unsigned>(msg->type()));
    }
}

void
CraqReplica::onForward(const ForwardMsg &msg)
{
    hermes_assert(isHead());
    uint64_t dedup_key =
        (static_cast<uint64_t>(msg.origin) << 48) ^ msg.reqId;
    if (!seenForwards_.insert(dedup_key).second)
        return; // duplicated forward: already ingested
    headIngest(msg.key, msg.value, msg.origin, msg.reqId);
}

void
CraqReplica::onWrite(const WriteMsg &msg)
{
    ++stats_.chainHops;
    // Multi-version bookkeeping: version append + metadata update. This
    // is CRAQ's inherent per-write overhead over Hermes' in-place update.
    env_.chargeStoreAccess(2);
    // Drop duplicates (chain re-propagation after repair): the version is
    // already committed or already queued.
    uint32_t committed = store_.withKey(msg.key, [&](KeyRecord &rec) {
        return rec.meta().aux;
    });
    DirtyList &list = dirty_[msg.key];
    bool duplicate = msg.version <= committed;
    if (!duplicate) {
        // Sorted insert: non-FIFO fabrics may reorder chain messages, and
        // commitLocal relies on ascending version order.
        auto pos = list.begin();
        while (pos != list.end() && pos->first < msg.version)
            ++pos;
        if (pos != list.end() && pos->first == msg.version) {
            duplicate = true;
        } else {
            list.emplace(pos, msg.version, msg.value);
            store_.withKey(msg.key, [&](KeyRecord &rec) {
                if (msg.version > rec.meta().ts.version)
                    rec.meta().ts.version = msg.version;
                rec.meta().state = kDirty;
            });
            // Persist before the ack/commit this write triggers below
            // (the tail's ack is what commits the whole chain).
            if (store::Wal *wal = store_.wal())
                wal->append(msg.key, Timestamp{msg.version, 0}, 0,
                            msg.value);
        }
    }
    if (duplicate && list.empty())
        dirty_.erase(msg.key);

    if (isTail()) {
        // The write reached the whole chain: it commits here and the
        // acknowledgment travels upstream.
        commitLocal(msg.key, msg.version);
        completeWrite(msg.origin, msg.reqId);
        auto ack = std::make_shared<WriteAckMsg>();
        ack->epoch = view_.epoch;
        ack->key = msg.key;
        ack->version = msg.version;
        ack->origin = msg.origin;
        ack->reqId = msg.reqId;
        env_.send(predecessor(), ack);
        return;
    }
    auto fwd = std::make_shared<WriteMsg>(msg);
    fwd->src = kInvalidNode; // restamped by the transport
    env_.send(successor(), fwd);
}

void
CraqReplica::onWriteAck(const WriteAckMsg &msg)
{
    commitLocal(msg.key, msg.version);
    completeWrite(msg.origin, msg.reqId);
    if (!isHead()) {
        auto ack = std::make_shared<WriteAckMsg>(msg);
        ack->src = kInvalidNode;
        env_.send(predecessor(), ack);
    }
}

void
CraqReplica::onVersionQuery(const VersionQueryMsg &msg)
{
    hermes_assert(isTail());
    ++stats_.versionQueriesServed;
    env_.chargeStoreAccess(1);
    store::ReadResult current = store_.read(msg.key);
    auto reply = std::make_shared<VersionReplyMsg>();
    reply->epoch = view_.epoch;
    reply->key = msg.key;
    reply->version = current.found ? current.meta.ts.version : 0;
    reply->reqId = msg.reqId;
    env_.send(msg.src, reply);
}

void
CraqReplica::onVersionReply(const VersionReplyMsg &msg)
{
    auto it = clientOps_.find(msg.reqId);
    if (it == clientOps_.end())
        return;
    ClientOp op = std::move(it->second);
    clientOps_.erase(it);

    store::ReadResult current = store_.read(op.key);
    if (current.found && current.meta.aux >= msg.version) {
        // Our committed copy caught up past the tail's answer; returning
        // the newer committed value just linearizes the read later.
        op.readCb(current.value);
        return;
    }
    // Return the newest dirty version <= the committed version.
    std::string_view chosen = current.found
                                  ? std::string_view(current.value)
                                  : std::string_view{};
    auto dirty_it = dirty_.find(op.key);
    if (dirty_it != dirty_.end()) {
        for (const auto &[version, value] : dirty_it->second) {
            if (version <= msg.version)
                chosen = value.view();
            else
                break;
        }
    }
    op.readCb(Value(chosen));
}

// ---------------------------------------------------------------------
// Membership
// ---------------------------------------------------------------------

void
CraqReplica::onViewChange(const membership::MembershipView &view)
{
    if (view.epoch <= view_.epoch)
        return;
    view_ = view;
    if (!view_.isLive(env_.self()))
        return; // removed: stop serving
    if (isHead()) {
        // Basic chain repair: the (possibly new) head re-propagates every
        // dirty version so writes interrupted by the failure still commit.
        for (auto &[key, list] : dirty_) {
            for (auto &[version, value] : list) {
                if (view_.live.size() == 1) {
                    commitLocal(key, version);
                    continue;
                }
                auto write_msg = std::make_shared<WriteMsg>();
                write_msg->epoch = view_.epoch;
                write_msg->key = key;
                write_msg->version = version;
                write_msg->value = value;
                write_msg->origin = kInvalidNode;
                write_msg->reqId = 0;
                env_.send(successor(), write_msg);
            }
        }
    }
}

size_t
CraqReplica::dirtyVersions(Key key) const
{
    auto it = dirty_.find(key);
    return it == dirty_.end() ? 0 : it->second.size();
}

} // namespace hermes::craq
