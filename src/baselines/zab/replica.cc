#include "baselines/zab/replica.hh"

#include "common/logging.hh"
#include "store/wal.hh"

namespace hermes::zab
{

using store::KeyRecord;

void
registerZabCodecs()
{
    net::registerMessage<ForwardMsg>();
    net::registerMessage<ProposeMsg>();
    net::registerMessage<AckMsg>();
    net::registerMessage<CommitMsg>();
}

ZabReplica::ZabReplica(net::Env &env, store::KvStore &store,
                       membership::MembershipView initial)
    : env_(env), store_(store), view_(std::move(initial))
{
    hermes_assert(!view_.live.empty());
    registerZabCodecs();
}

// ---------------------------------------------------------------------
// Client API
// ---------------------------------------------------------------------

void
ZabReplica::read(Key key, ReadCallback cb)
{
    // Local SC read (the paper's upper-bound-for-ZAB configuration); the
    // driver enforces the session read-after-write stall.
    ++stats_.readsCompleted;
    store::ReadResult result = store_.read(key);
    cb(result.value);
}

void
ZabReplica::write(Key key, ValueRef value, WriteCallback cb)
{
    uint64_t req_id = nextReqId_++;
    clientOps_[req_id] = std::move(cb);
    if (isLeader()) {
        propose(key, std::move(value), env_.self(), req_id);
        return;
    }
    auto fwd = std::make_shared<ForwardMsg>();
    fwd->epoch = view_.epoch;
    fwd->key = key;
    fwd->value = std::move(value);
    fwd->origin = env_.self();
    fwd->reqId = req_id;
    env_.send(leader(), fwd);
}

// ---------------------------------------------------------------------
// Leader machinery
// ---------------------------------------------------------------------

void
ZabReplica::propose(Key key, ValueRef value, NodeId origin, uint64_t req_id)
{
    hermes_assert(isLeader());
    ingress_.push_back(LogEntry{key, std::move(value), origin, req_id});
    pumpSequencer();
}

void
ZabReplica::pumpSequencer()
{
    if (sequencerBusy_ || ingress_.empty())
        return;
    sequencerBusy_ = true;
    auto batch = std::make_shared<std::vector<LogEntry>>();
    while (!ingress_.empty() && batch->size() < kSeqBatchCap) {
        batch->push_back(std::move(ingress_.front()));
        ingress_.pop_front();
    }
    DurationNs stage_time =
        kSeqBatchFixedNs + batch->size() * kSeqPerEntryNs;
    env_.setTimer(stage_time, [this, batch] {
        for (LogEntry &entry : *batch)
            broadcastProposal(std::move(entry));
        advanceCommit(); // single-node views commit immediately
        sequencerBusy_ = false;
        pumpSequencer();
    });
}

void
ZabReplica::broadcastProposal(LogEntry entry)
{
    uint64_t zxid = ++nextZxid_;
    auto proposal = std::make_shared<ProposeMsg>();
    proposal->epoch = view_.epoch;
    proposal->zxid = zxid;
    proposal->key = entry.key;
    proposal->value = entry.value;
    proposal->origin = entry.origin;
    proposal->reqId = entry.reqId;

    log_.emplace(zxid, std::move(entry));
    proposals_[zxid].acks.push_back(env_.self()); // leader self-ack
    ++stats_.proposalsSent;
    env_.broadcast(view_.live, proposal);
}

void
ZabReplica::advanceCommit()
{
    // ZAB's strict ordering: zxid z commits only when it has a majority
    // AND every zxid before it has committed — the serialization point
    // the paper blames for ZAB's write behaviour.
    uint64_t before = committedUpTo_;
    for (;;) {
        auto it = proposals_.find(committedUpTo_ + 1);
        if (it == proposals_.end()
                || it->second.acks.size() < view_.quorum()) {
            break;
        }
        proposals_.erase(it);
        ++committedUpTo_;
    }
    if (committedUpTo_ != before) {
        auto commit = std::make_shared<CommitMsg>();
        commit->epoch = view_.epoch;
        commit->zxid = committedUpTo_;
        env_.broadcast(view_.live, commit);
        applyUpTo(committedUpTo_);
    }
}

void
ZabReplica::applyUpTo(uint64_t commit_bound)
{
    if (commit_bound > commitBound_)
        commitBound_ = commit_bound;
    while (lastApplied_ < commitBound_) {
        auto it = log_.find(lastApplied_ + 1);
        if (it == log_.end())
            break; // gap: wait for the missing proposal
        LogEntry entry = std::move(it->second);
        log_.erase(it);
        ++lastApplied_;
        ++stats_.entriesApplied;
        env_.chargeStoreAccess(1);
        store_.withKey(entry.key, [&](KeyRecord &rec) {
            rec.meta().ts.version = static_cast<uint32_t>(lastApplied_);
            rec.setValue(entry.value);
        });
        if (store::Wal *wal = store_.wal())
            wal->append(entry.key,
                        Timestamp{static_cast<uint32_t>(lastApplied_), 0},
                        0, entry.value);
        if (entry.origin == env_.self()) {
            auto op = clientOps_.find(entry.reqId);
            if (op != clientOps_.end()) {
                WriteCallback cb = std::move(op->second);
                clientOps_.erase(op);
                ++stats_.writesCommitted;
                if (cb)
                    cb();
            }
        }
    }
}

// ---------------------------------------------------------------------
// Message handlers
// ---------------------------------------------------------------------

void
ZabReplica::onMessage(const net::MessagePtr &msg)
{
    if (msg->epoch != view_.epoch)
        return;
    switch (msg->type()) {
      case net::MsgType::ZabForward:
        onForward(static_cast<const ForwardMsg &>(*msg));
        break;
      case net::MsgType::ZabPropose:
        onPropose(static_cast<const ProposeMsg &>(*msg));
        break;
      case net::MsgType::ZabAck:
        onAck(static_cast<const AckMsg &>(*msg));
        break;
      case net::MsgType::ZabCommit:
        onCommit(static_cast<const CommitMsg &>(*msg));
        break;
      default:
        panic("ZabReplica got message type %u",
              static_cast<unsigned>(msg->type()));
    }
}

void
ZabReplica::onForward(const ForwardMsg &msg)
{
    hermes_assert(isLeader());
    propose(msg.key, msg.value, msg.origin, msg.reqId);
}

void
ZabReplica::onPropose(const ProposeMsg &msg)
{
    env_.chargeStoreAccess(1); // log append
    log_.emplace(msg.zxid, LogEntry{msg.key, msg.value, msg.origin,
                                    msg.reqId});
    auto ack = std::make_shared<AckMsg>();
    ack->epoch = view_.epoch;
    ack->zxid = msg.zxid;
    env_.send(msg.src, ack);
    applyUpTo(commitBound_); // the proposal may fill an apply gap
}

void
ZabReplica::onAck(const AckMsg &msg)
{
    if (!isLeader())
        return;
    auto it = proposals_.find(msg.zxid);
    if (it == proposals_.end())
        return; // already committed
    if (!contains(it->second.acks, msg.src))
        it->second.acks.push_back(msg.src);
    advanceCommit();
}

void
ZabReplica::onCommit(const CommitMsg &msg)
{
    applyUpTo(msg.zxid);
}

// ---------------------------------------------------------------------
// Membership
// ---------------------------------------------------------------------

void
ZabReplica::onViewChange(const membership::MembershipView &view)
{
    if (view.epoch <= view_.epoch)
        return;
    bool was_leader = isLeader();
    view_ = view;
    if (!view_.isLive(env_.self()))
        return;
    if (isLeader() && !was_leader) {
        // Simplified recovery: the full ZAB synchronization phase is not
        // implemented. The new leader re-proposes its unapplied log
        // suffix so in-flight writes still commit.
        nextZxid_ = std::max(nextZxid_, commitBound_);
        for (auto &[zxid, entry] : log_) {
            if (zxid > lastApplied_) {
                propose(entry.key, entry.value, entry.origin, entry.reqId);
            }
        }
    }
}

} // namespace hermes::zab
