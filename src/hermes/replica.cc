#include "hermes/replica.hh"

#include <algorithm>

#include "common/logging.hh"
#include "store/wal.hh"

namespace hermes::proto
{

using membership::MembershipView;
using store::KeyMeta;
using store::KeyRecord;

namespace
{

/** view.live minus self: the ACK set of a coordinated update. */
NodeSet
followersOf(const MembershipView &view, NodeId self)
{
    NodeSet out;
    for (NodeId n : view.live)
        if (n != self)
            out.push_back(n);
    return out;
}

void
removeNode(NodeSet &set, NodeId node)
{
    set.erase(std::remove(set.begin(), set.end(), node), set.end());
}

} // namespace

// ---------------------------------------------------------------------
// Which frames wait for the log
// ---------------------------------------------------------------------
//
// With a WAL, the TCP transport holds each frame until every record
// appended before it was staged is durable (net::Env::attachLog), and a
// coordinator counts its own durable record as one of the ACKs its
// commit needs (onLogDurable; in the sim, at the job's flush). §3's ACK
// rule then reads: an update commits once its coordinator's record is
// durable and every live follower ACKed, and a follower's ACK waits for
// the record of the INV it acknowledges, which was appended before the
// ACK was staged. At commit, the value is therefore durable at every
// replica live in the commit's view. A key turns Valid only through a
// commit (the coordinator's own or a VAL), so Valid implies that the
// value is durable at every live replica. Three kinds of frame depend on
// no pending record, and are sent inside a net::NoLogWait scope
// (unloggedFrames()):
//
//  - Every INV: first broadcast, mlt retransmit, view-change re-send,
//    replay, and the RMW rejection. An INV asks; it acknowledges
//    nothing. A replica that adopts it logs it before its own ACK can
//    leave, and the coordinator's copy gates the commit through
//    onLogDurable, so no ACK is ever counted for a record still in a
//    queue. A replay re-sends the replayer's copy, whose record was
//    appended when it adopted the INV or restored it from the log; the
//    replay's commit waits for it (registerPending stamps every update
//    with the log's last record). The rejection carries the rejecter's
//    local version; whoever adopts it logs it before acknowledging
//    anything, and its own commit still needs every ACK.
//  - The commit's VAL and its client reply (write or CAS). Both leave
//    after the commit, when the value is durable at every live replica:
//    the VAL validates followers that logged it before their ACK, and
//    the reply's write can be lost only if every replica of the commit's
//    view loses its log.
//  - Replies to reads of Valid keys. By the argument above, the value
//    read is committed and durable at every replica live at its commit,
//    even when the serving replica's own copy is not durable yet. That
//    is the case on a §3.4 shadow, which adopts Valid entries from state
//    transfer chunks: those entries keep the default (the shadow's next
//    StateReq waits for the last chunk's records), and they were Valid,
//    hence durable at every live replica, at the source. Slot-migration
//    entries, which arrive Valid too, are durable at the destination
//    before the cutover lets it serve them.
//
// Everything else keeps the default: ACKs (their promise is the record),
// state transfer, LSC-free epoch probes, RM traffic, migration, and all
// three baselines' messages.
//
// O3 (ackBroadcast) breaks "Valid implies durable". A follower turns a
// key Valid on a complete ACK set (recordAck), which counts its own ACK
// as soon as it appends the record and treats the INV as the
// coordinator's ACK; in a 2-replica group the INV alone completes it.
// With O3 on, unloggedFrames() therefore opens no scope and every frame
// keeps the default, as before group commit: the INV waits for its
// coordinator's record, each broadcast ACK for its sender's, and a read
// reply for the serving replica's own.

HermesReplica::HermesReplica(net::Env &env, store::KvStore &store,
                             MembershipView initial, HermesConfig config)
    : env_(env), store_(store), view_(std::move(initial)), config_(config)
{
    if (config_.numNodes == 0)
        config_.numNodes = static_cast<unsigned>(view_.live.size());
    // A replica constructed outside the live set is a prospective shadow
    // (§3.4): it follows the protocol but serves no clients until synced.
    shadow_ = !view_.isLive(env_.self());
    registerHermesCodecs();
}

// ---------------------------------------------------------------------
// Client API
// ---------------------------------------------------------------------

void
HermesReplica::read(Key key, ReadCallback cb)
{
    if (halted_)
        return;
    if (!isOperational()) {
        // Lease lapsed (§2.4): stall until the RM renews or reconfigures.
        env_.setTimer(200_us, [this, key, cb = std::move(cb)]() mutable {
            read(key, std::move(cb));
        });
        return;
    }
    store::ReadResult result = store_.read(key);
    if (!result.found
            || static_cast<KeyState>(result.meta.state) == KeyState::Valid) {
        serveRead(result.value, std::move(cb));
        return;
    }
    ++stats_.readsStalled;
    Stalled req;
    req.kind = Stalled::Kind::Read;
    req.readCb = std::move(cb);
    stallRequest(key, std::move(req));
}

void
HermesReplica::write(Key key, ValueRef value, WriteCallback cb)
{
    if (halted_)
        return;
    if (!isOperational()) {
        env_.setTimer(200_us,
                      [this, key, value = std::move(value),
                       cb = std::move(cb)]() mutable {
                          write(key, std::move(value), std::move(cb));
                      });
        return;
    }
    Stalled req;
    req.kind = Stalled::Kind::Write;
    req.value = std::move(value);
    req.writeCb = std::move(cb);
    if (!admitSerial(req, key))
        return;
    store::ReadResult current = store_.read(key);
    bool valid = !current.found
                 || static_cast<KeyState>(current.meta.state)
                        == KeyState::Valid;
    if (valid && !pending_.count(key)) {
        issueUpdate(key, std::move(req.value), false, std::move(req.writeCb),
                    nullptr, {});
    } else {
        stallRequest(key, std::move(req));
    }
}

void
HermesReplica::cas(Key key, ValueRef expected, ValueRef desired, CasCallback cb)
{
    if (halted_)
        return;
    if (!isOperational()) {
        env_.setTimer(200_us,
                      [this, key, expected = std::move(expected),
                       desired = std::move(desired),
                       cb = std::move(cb)]() mutable {
                          cas(key, std::move(expected), std::move(desired),
                              std::move(cb));
                      });
        return;
    }
    store::ReadResult current = store_.read(key);
    bool valid = !current.found
                 || static_cast<KeyState>(current.meta.state)
                        == KeyState::Valid;
    if (valid && !pending_.count(key)) {
        if (current.value != expected) {
            // Linearizable fast failure: the key is Valid, so its local
            // value is the globally latest one (§3.1 invariant).
            ++stats_.casFailedCompare;
            cb(false, current.value);
            return;
        }
        issueUpdate(key, std::move(desired), true, nullptr, std::move(cb),
                    std::move(expected));
    } else {
        Stalled req;
        req.kind = Stalled::Kind::Cas;
        req.value = std::move(desired);
        req.expected = std::move(expected);
        req.casCb = std::move(cb);
        stallRequest(key, std::move(req));
    }
}

// ---------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------

uint32_t
HermesReplica::pickCid()
{
    // Cids are group-relative (self - nodeBase) so sharded groups on a
    // non-zero id block keep the modulo mapping of physicalOf().
    uint32_t rank = env_.self() - config_.nodeBase;
    if (config_.virtualIdsPerNode <= 1)
        return rank;
    // O2: vid = k*N + rank keeps virtual ids disjoint across nodes while
    // spreading each node's ids uniformly over the tie-break space.
    uint64_t k = env_.rng().nextBounded(config_.virtualIdsPerNode);
    return static_cast<uint32_t>(k * config_.numNodes + rank);
}

void
HermesReplica::issueUpdate(Key key, ValueRef value, bool rmw,
                           WriteCallback wcb, CasCallback ccb,
                           ValueRef cas_expected)
{
    uint32_t cid = pickCid();
    Timestamp new_ts;
    store_.withKey(key, [&](KeyRecord &rec) {
        // CTS (§3.2/§3.6): writes step the version by two, RMWs by one, so
        // a write racing an RMW always carries the higher timestamp.
        new_ts = rmw ? rec.meta().ts.nextRmw(cid)
                     : rec.meta().ts.nextWrite(cid);
        rec.meta().ts = new_ts;
        rec.meta().state = static_cast<uint8_t>(KeyState::Write);
        rec.meta().flags = rmw ? kRmwFlag : 0;
        rec.setValue(value);
    });
    // Log before the INV broadcast below. Under fsync-every the record
    // is durable before any peer can learn (and ack) the write; under
    // group commit the INV leaves at once and the commit waits for the
    // record (registerPending), in parallel with the followers' own.
    if (store::Wal *wal = store_.wal())
        wal->append(key, new_ts, rmw ? kRmwFlag : 0, value);
    if (rmw)
        ++stats_.rmwsIssued;
    else
        ++stats_.writesIssued;

    Pending pending;
    pending.ts = new_ts;
    pending.value = std::move(value);
    pending.rmw = rmw;
    pending.replay = false;
    pending.acksNeeded = followersOf(view_, env_.self());
    pending.writeCb = std::move(wcb);
    pending.casCb = std::move(ccb);
    pending.casExpected = std::move(cas_expected);
    registerPending(key, std::move(pending));
}

void
HermesReplica::registerPending(Key key, Pending pending)
{
    auto [it, inserted] = pending_.emplace(key, std::move(pending));
    hermes_assert(inserted);
    // The coordinator's own ACK: every record appended so far (the
    // update's own, or a replay's adopted copy) must be durable, as
    // under fsync-every it already is.
    if (store::Wal *wal = store_.wal()) {
        uint64_t seq = wal->appendedSeq();
        if (seq > wal->deliveredSeq() && seq > wal->durableSeq()) {
            it->second.awaitingLog = true;
            logWaits_.push_back({seq, key, it->second.ts});
        }
    }
    broadcastInv(key, it->second);
    armMlt(key);
    tryCommit(key); // a single-replica view commits once it is durable
}

void
HermesReplica::onLogDurable(uint64_t seq)
{
    while (!logWaits_.empty() && logWaits_.front().seq <= seq) {
        LogWait wait = logWaits_.front();
        logWaits_.pop_front();
        auto it = pending_.find(wait.key);
        if (it == pending_.end() || it->second.ts != wait.ts)
            continue; // aborted or superseded meanwhile
        it->second.awaitingLog = false;
        tryCommit(wait.key);
    }
}

void
HermesReplica::broadcastInv(Key key, const Pending &pending)
{
    auto inv = std::make_shared<InvMsg>();
    inv->epoch = view_.epoch;
    inv->key = key;
    inv->ts = pending.ts;
    inv->rmw = pending.rmw;
    inv->value = pending.value;
    net::NoLogWait unlogged = unloggedFrames();
    env_.broadcast(view_.live, inv);
}

void
HermesReplica::armMlt(Key key)
{
    auto it = pending_.find(key);
    if (it == pending_.end())
        return;
    it->second.mltTimer = env_.setTimer(
        config_.mlt,
        [this, key, ts = it->second.ts] { onMltExpired(key, ts); });
}

void
HermesReplica::onMltExpired(Key key, Timestamp ts)
{
    auto it = pending_.find(key);
    if (it == pending_.end() || it->second.ts != ts)
        return;
    // Suspected INV or ACK loss (§3.4): retransmit to the laggards.
    ++stats_.invRetransmits;
    if (logLevel() >= LogLevel::Debug) {
        std::string missing;
        for (NodeId n : it->second.acksNeeded)
            missing += std::to_string(n) + ",";
        LOG_DEBUG("node %u mlt key=%llu ts=%s missing=[%s] replay=%d "
                  "rmw=%d",
                  env_.self(), (unsigned long long)key,
                  it->second.ts.toString().c_str(), missing.c_str(),
                  it->second.replay, it->second.rmw);
    }
    auto inv = std::make_shared<InvMsg>();
    inv->epoch = view_.epoch;
    inv->key = key;
    inv->ts = it->second.ts;
    inv->rmw = it->second.rmw;
    inv->value = it->second.value;
    {
        net::NoLogWait unlogged = unloggedFrames();
        env_.broadcast(it->second.acksNeeded, inv);
    }
    armMlt(key);
}

void
HermesReplica::tryCommit(Key key)
{
    auto it = pending_.find(key);
    if (it == pending_.end() || !it->second.acksNeeded.empty()
            || it->second.awaitingLog)
        return;
    Pending pending = std::move(it->second);
    pending_.erase(it);
    commit(key, std::move(pending));
}

void
HermesReplica::commit(Key key, Pending pending)
{
    env_.cancelTimer(pending.mltTimer);

    env_.chargeStoreAccess(1);
    bool conflicted = false;
    store_.withKey(key, [&](KeyRecord &rec) {
        KeyMeta &meta = rec.meta();
        if (meta.ts == pending.ts) {
            // CACK: the write is globally visible; no future read anywhere
            // can return an older value.
            meta.state = static_cast<uint8_t>(KeyState::Valid);
        } else {
            // A concurrent higher-timestamped update superseded ours while
            // we gathered ACKs; our write is linearized before it. Wait in
            // Invalid for the winner's VAL.
            conflicted = true;
            if (static_cast<KeyState>(meta.state) == KeyState::Trans)
                meta.state = static_cast<uint8_t>(KeyState::Invalid);
        }
    });

    bool skip_val = config_.ackBroadcast
                    || (conflicted && config_.skipValOnConflict);
    {
        // Committed: durable at every live replica. The VAL and the
        // reply wait for nothing (see "Which frames wait for the log").
        net::NoLogWait unlogged = unloggedFrames();
        if (skip_val) {
            ++stats_.valsSkipped; // O1/O3
        } else {
            auto val = std::make_shared<ValMsg>();
            val->epoch = view_.epoch;
            val->key = key;
            val->ts = pending.ts;
            env_.broadcast(view_.live, val);
        }

        if (pending.replay) {
            // Replays complete silently; the stalled request that
            // triggered them is serviced by the drain below.
        } else if (pending.rmw) {
            hermes_assert(!conflicted); // conflicting RMWs abort first
            ++stats_.rmwsCommitted;
            if (pending.casCb)
                pending.casCb(true, pending.casExpected.str());
        } else {
            ++stats_.writesCommitted;
            if (pending.writeCb)
                pending.writeCb();
        }
    }

    drainStalled(key);
    pumpSerialQueue();
}

void
HermesReplica::abortRmw(Key key, const char *reason)
{
    auto it = pending_.find(key);
    hermes_assert(it != pending_.end()
                  && (it->second.rmw || it->second.replay));
    Pending pending = std::move(it->second);
    pending_.erase(it);
    env_.cancelTimer(pending.mltTimer);
    ++stats_.rmwsAborted;
    LOG_DEBUG("node %u aborts RMW on key %llu (%s)", env_.self(),
              static_cast<unsigned long long>(key), reason);
    if (pending.replay)
        return; // an obsolete replay just dies; timers re-drive if needed
    if (pending.casCb) {
        // Retry the whole CAS: it re-stalls until the winning update
        // commits, then re-checks expected against the new value.
        cas(key, std::move(pending.casExpected), std::move(pending.value),
            std::move(pending.casCb));
    }
}

// ---------------------------------------------------------------------
// Message handlers
// ---------------------------------------------------------------------

void
HermesReplica::onMessage(const net::MessagePtr &msg)
{
    if (halted_)
        return;
    if (msg->epoch != view_.epoch) {
        // §2.4: receivers drop messages from a different membership epoch;
        // the sender's retransmission completes once views agree.
        ++stats_.staleEpochDropped;
        return;
    }
    switch (msg->type()) {
      case net::MsgType::HermesInv:
        onInv(static_cast<const InvMsg &>(*msg));
        break;
      case net::MsgType::HermesAck:
        onAck(static_cast<const AckMsg &>(*msg));
        break;
      case net::MsgType::HermesVal:
        onVal(static_cast<const ValMsg &>(*msg));
        break;
      case net::MsgType::HermesEpochCheck:
        onEpochCheck(static_cast<const EpochCheckMsg &>(*msg));
        break;
      case net::MsgType::HermesEpochCheckAck:
        onEpochCheckAck(static_cast<const EpochCheckAckMsg &>(*msg));
        break;
      case net::MsgType::HermesStateReq:
        onStateReq(static_cast<const StateReqMsg &>(*msg));
        break;
      case net::MsgType::HermesStateChunk:
        onStateChunk(static_cast<const StateChunkMsg &>(*msg));
        break;
      default:
        panic("HermesReplica got message type %u",
              static_cast<unsigned>(msg->type()));
    }
}

void
HermesReplica::onInv(const InvMsg &msg)
{
    struct ApplyResult
    {
        bool ackIt;
        bool adopted;
        Timestamp localTs;
        uint8_t localFlags;
        ValueRef localValue;
    };

    env_.chargeStoreAccess(1);
    ApplyResult result = store_.withKey(msg.key, [&](KeyRecord &rec) {
        KeyMeta &meta = rec.meta();
        bool higher = msg.ts > meta.ts;
        // FACK for writes is unconditional; FRMW-ACK (§3.6) only for a
        // timestamp at least as high as the local one.
        bool ack_it = !msg.rmw || msg.ts >= meta.ts;
        ApplyResult r{ack_it, higher, meta.ts, meta.flags, {}};
        if (higher) {
            // FINV: adopt value + timestamp; a coordinator/replayer whose
            // own update is in flight parks in Trans instead of Invalid.
            auto state = static_cast<KeyState>(meta.state);
            bool own_update_in_flight = state == KeyState::Write
                                        || state == KeyState::Replay
                                        || state == KeyState::Trans;
            meta.ts = msg.ts;
            meta.flags = msg.rmw ? kRmwFlag : 0;
            meta.state = static_cast<uint8_t>(
                own_update_in_flight ? KeyState::Trans : KeyState::Invalid);
            rec.setValue(msg.value);
        } else if (!ack_it) {
            // Copy out under the seqlock: the rejection INV must carry a
            // stable snapshot, not a view into a mutable entry.
            r.localValue = ValueRef::copyOf(rec.value());
        }
        return r;
    });

    // Follower-side persistence: an adopted INV is exactly the state a
    // crashed follower must not forget — the ACK it sends below is what
    // lets the coordinator commit.
    if (result.adopted) {
        if (store::Wal *wal = store_.wal())
            wal->append(msg.key, msg.ts, msg.rmw ? kRmwFlag : 0,
                        msg.value);
    }

    // Interactions with an update we are coordinating on this key.
    auto it = pending_.find(msg.key);
    if (it != pending_.end() && msg.ts > it->second.ts
            && (it->second.rmw || it->second.replay)) {
        // CRMW-abort: a higher-timestamped update wins the conflict. An
        // obsolete replay dies the same way: someone holds newer data.
        // Plain writes keep gathering ACKs: they never abort (§3.1).
        abortRmw(msg.key, "superseded by a higher-timestamped update");
    }

    if (result.ackIt) {
        auto ack = std::make_shared<AckMsg>();
        ack->epoch = view_.epoch;
        ack->key = msg.key;
        ack->ts = msg.ts;
        if (config_.ackBroadcast) {
            // O3: everyone hears the ACK and can unblock reads early.
            env_.broadcast(view_.live, ack);
            recordAck(msg.key, msg.ts, env_.self());
        } else {
            env_.send(msg.src, ack);
        }
    } else {
        // RMW rejection: answer with an INV carrying our (higher) local
        // version — the same message shape a write replay uses — which
        // makes the RMW's coordinator adopt it and abort (§3.6).
        auto rejection = std::make_shared<InvMsg>();
        rejection->epoch = view_.epoch;
        rejection->key = msg.key;
        rejection->ts = result.localTs;
        rejection->rmw = (result.localFlags & kRmwFlag) != 0;
        rejection->value = std::move(result.localValue);
        net::NoLogWait unlogged = unloggedFrames();
        env_.send(msg.src, rejection);
    }
}

void
HermesReplica::onAck(const AckMsg &msg)
{
    if (config_.ackBroadcast)
        recordAck(msg.key, msg.ts, msg.src);

    auto it = pending_.find(msg.key);
    if (it == pending_.end() || it->second.ts != msg.ts)
        return; // stale ACK of a superseded round
    removeNode(it->second.acksNeeded, msg.src);
    tryCommit(msg.key);
}

void
HermesReplica::onVal(const ValMsg &msg)
{
    env_.chargeStoreAccess(1);
    store_.withKey(msg.key, [&](KeyRecord &rec) {
        // FVAL: validate iff the VAL matches the local timestamp;
        // otherwise a newer INV got here first and this VAL is stale.
        if (rec.meta().ts == msg.ts)
            rec.meta().state = static_cast<uint8_t>(KeyState::Valid);
    });
    if (config_.ackBroadcast) {
        auto track = ackTrack_.find(msg.key);
        if (track != ackTrack_.end() && track->second.ts == msg.ts)
            ackTrack_.erase(track);
    }
    drainStalled(msg.key);
}

void
HermesReplica::recordAck(Key key, Timestamp ts, NodeId from)
{
    AckTrack &track = ackTrack_[key];
    if (ts != track.ts) {
        if (ts < track.ts)
            return;
        track.ts = ts;
        track.acked.clear();
    }
    if (!contains(track.acked, from))
        track.acked.push_back(from);

    // Complete once every live replica except the update's coordinator
    // acked; the coordinator commits through its pending entry instead.
    NodeId coordinator = physicalOf(ts.cid);
    for (NodeId n : view_.live) {
        if (n != coordinator && !contains(track.acked, n))
            return;
    }
    ackTrack_.erase(key);
    store_.withKey(key, [&](KeyRecord &rec) {
        if (rec.meta().ts == ts && !pending_.count(key))
            rec.meta().state = static_cast<uint8_t>(KeyState::Valid);
    });
    drainStalled(key);
}

NodeId
HermesReplica::physicalOf(uint32_t cid) const
{
    return config_.nodeBase + cid % config_.numNodes;
}

// ---------------------------------------------------------------------
// LSC-free reads (§8)
// ---------------------------------------------------------------------

void
HermesReplica::speculateRead(Value value, ReadCallback cb)
{
    SpeculativeRead read{std::move(value), std::move(cb)};
    if (checkInFlight_) {
        // Piggyback on the next probe: probes are batched over all reads
        // that speculate while one is outstanding (§8).
        specNextBatch_.push_back(std::move(read));
        return;
    }
    specInFlight_.push_back(std::move(read));
    startEpochCheck();
}

void
HermesReplica::startEpochCheck()
{
    checkInFlight_ = true;
    ++checkNonce_;
    checkAckedBy_ = {env_.self()};
    auto probe = std::make_shared<EpochCheckMsg>();
    probe->epoch = view_.epoch;
    probe->nonce = checkNonce_;
    env_.broadcast(view_.live, probe);
    // Probe-loss (or epoch-transition) retry.
    env_.setTimer(config_.mlt, [this, nonce = checkNonce_] {
        if (checkInFlight_ && checkNonce_ == nonce && !halted_) {
            auto retry = std::make_shared<EpochCheckMsg>();
            retry->epoch = view_.epoch;
            retry->nonce = nonce;
            env_.broadcast(view_.live, retry);
        }
    });
}

void
HermesReplica::onEpochCheck(const EpochCheckMsg &msg)
{
    // Reaching here means the envelope epoch matched ours: acknowledge.
    auto ack = std::make_shared<EpochCheckAckMsg>();
    ack->epoch = view_.epoch;
    ack->nonce = msg.nonce;
    env_.send(msg.src, ack);
}

void
HermesReplica::onEpochCheckAck(const EpochCheckAckMsg &msg)
{
    if (!checkInFlight_ || msg.nonce != checkNonce_)
        return;
    if (!contains(checkAckedBy_, msg.src))
        checkAckedBy_.push_back(msg.src);
    if (checkAckedBy_.size() < view_.quorum())
        return;
    // A majority shares our epoch: the membership cannot have changed
    // under us (m-updates are majority-committed), so every read that
    // speculated before the probe is linearizable. Return them.
    std::vector<SpeculativeRead> batch = std::move(specInFlight_);
    specInFlight_.clear();
    checkInFlight_ = false;
    for (SpeculativeRead &read : batch) {
        ++stats_.readsCompleted;
        read.cb(read.value);
    }
    if (!specNextBatch_.empty()) {
        specInFlight_ = std::move(specNextBatch_);
        specNextBatch_.clear();
        startEpochCheck();
    }
}

// ---------------------------------------------------------------------
// Shadow-replica state transfer (§3.4 Recovery)
// ---------------------------------------------------------------------

void
HermesReplica::startShadowSync(NodeId source)
{
    hermes_assert(view_.isLive(env_.self()));
    shadow_ = true;
    shadowSource_ = source;
    shadowOffset_ = 0;
    requestNextChunk();
}

void
HermesReplica::requestNextChunk()
{
    if (!shadow_)
        return;
    auto request = std::make_shared<StateReqMsg>();
    request->epoch = view_.epoch;
    request->offset = shadowOffset_;
    env_.send(shadowSource_, request);
    // Chunk-loss retry: if the offset hasn't advanced by mlt, re-request.
    env_.setTimer(config_.mlt, [this, expected = shadowOffset_] {
        if (shadow_ && shadowOffset_ == expected)
            requestNextChunk();
    });
}

void
HermesReplica::onStateReq(const StateReqMsg &msg)
{
    // Same epoch but outside the view: the requester adopted its own
    // removal and halted, so it can never apply a chunk. Serving it
    // would re-create the cursor the view change just dropped.
    if (!view_.isLive(msg.src))
        return;

    // Chunks are a fuzzy read of the live store, not of a frozen copy:
    // the shadow is already in the view and takes part in every write
    // while it syncs (§3.4), so the source only ever holds the chunk it
    // is filling. This is safe because
    //  - chains are prepend-only and keys are never deleted, so an
    //    insert behind the cursor can only make a resumed scan repeat
    //    an entry, never skip one (see KvStore::scan); a repeated entry
    //    is harmless, the shadow keeps the newer timestamp;
    //  - a key inserted after the shadow's first request was written in
    //    the shadow's own epoch, so the shadow also receives that
    //    write's INV (cross-epoch INVs are dropped in onMessage).
    // `offset` counts entries served so far. The next chunk resumes from
    // the remembered cursor; any other offset (a lost chunk's retry, or
    // a retried final chunk whose cursor is already freed) is reached by
    // walking the chains without copying values.
    store::ScanCursor start;
    auto it = transfers_.find(msg.src);
    if (it != transfers_.end() && msg.offset == it->second.nextOffset)
        start = it->second.next;
    else
        start = store_.seek(msg.offset).next;

    auto chunk = std::make_shared<StateChunkMsg>();
    chunk->epoch = view_.epoch;
    chunk->offset = msg.offset;
    chunk->entries.reserve(kChunkEntries);
    store::ScanStep step = store_.scan(
        start, kChunkEntries,
        [&chunk](Key key, const store::KeyMeta &meta, ValueRef value) {
            // Non-Valid keys are transferred too — their (ts, value) is
            // exactly an INV's early-propagated data — but flagged so the
            // shadow stores them Invalid: a later request there replays
            // the write before any read can observe it.
            StateEntry entry;
            entry.key = key;
            entry.ts = meta.ts;
            entry.flags = meta.flags;
            entry.valid =
                static_cast<KeyState>(meta.state) == KeyState::Valid;
            entry.value = std::move(value);
            chunk->entries.push_back(std::move(entry));
        });
    chunk->done = !step.more;
    env_.send(msg.src, chunk);
    if (chunk->done) {
        transfers_.erase(msg.src);
    } else {
        transfers_[msg.src] =
            ShadowTransfer{msg.offset + step.visited, step.next};
    }
}

void
HermesReplica::onStateChunk(const StateChunkMsg &msg)
{
    if (!shadow_ || msg.src != shadowSource_
            || msg.offset != shadowOffset_) {
        return; // duplicate or stale chunk
    }
    for (const StateEntry &entry : msg.entries) {
        bool applied = store_.withKey(entry.key, [&](KeyRecord &rec) {
            // Writes racing the transfer may already have delivered a
            // newer version via INV; never regress.
            if (entry.ts > rec.meta().ts) {
                rec.meta().ts = entry.ts;
                rec.meta().flags = entry.flags;
                rec.meta().state = static_cast<uint8_t>(
                    entry.valid ? KeyState::Valid : KeyState::Invalid);
                rec.setValue(entry.value);
                return true;
            }
            // Equal timestamp, source says Valid: same justification as
            // a VAL message — the transfer source observed this exact
            // version committed. A WAL-replayed key (restored Invalid,
            // bytes already correct) upgrades here without waiting for a
            // §3.4 replay round.
            if (entry.ts == rec.meta().ts && entry.valid
                    && static_cast<KeyState>(rec.meta().state)
                           == KeyState::Invalid) {
                rec.meta().state = static_cast<uint8_t>(KeyState::Valid);
            }
            return false;
        });
        // Catch-up data a crash must not lose either: log what we adopt.
        if (applied) {
            if (store::Wal *wal = store_.wal())
                wal->append(entry.key, entry.ts, entry.flags, entry.value);
        }
    }
    shadowOffset_ += msg.entries.size();
    if (msg.done) {
        shadow_ = false;
        shadowSource_ = kInvalidNode;
        LOG_INFO("node %u finished shadow sync (%llu keys), operational",
                 env_.self(), static_cast<unsigned long long>(shadowOffset_));
    } else {
        requestNextChunk();
    }
}

// ---------------------------------------------------------------------
// Stalls, replays, membership
// ---------------------------------------------------------------------

void
HermesReplica::serveRead(const Value &value, ReadCallback cb)
{
    if (config_.lscFreeReads) {
        speculateRead(value, std::move(cb));
        return;
    }
    ++stats_.readsCompleted;
    // The key is Valid: see "Which frames wait for the log".
    net::NoLogWait unlogged = unloggedFrames();
    cb(value);
}

void
HermesReplica::stallRequest(Key key, Stalled req)
{
    stalled_[key].push_back(std::move(req));
    ++stalledCount_;
    armReplayTimer(key);
}

void
HermesReplica::armReplayTimer(Key key)
{
    if (replayTimers_.count(key))
        return;
    replayTimers_[key] =
        env_.setTimer(config_.mlt, [this, key] { onReplayTimer(key); });
}

void
HermesReplica::onReplayTimer(Key key)
{
    replayTimers_.erase(key);
    store::ReadResult current = store_.read(key);
    if (!current.found)
        return;
    if (static_cast<KeyState>(current.meta.state) == KeyState::Valid) {
        drainStalled(key);
        return;
    }
    if (pending_.count(key)) {
        // We coordinate an update on this key already; its own mlt loop
        // drives progress. Keep watching.
        armReplayTimer(key);
        return;
    }
    auto it = stalled_.find(key);
    if (it == stalled_.end() || it->second.empty())
        return; // nobody waits; §3.4 replays only on a stalled request
    startReplay(key);
    armReplayTimer(key); // keep watching in case the replay loses a race
}

void
HermesReplica::startReplay(Key key)
{
    ++stats_.replaysStarted;
    Timestamp ts;
    ValueRef value;
    uint8_t flags = 0;
    store_.withKey(key, [&](KeyRecord &rec) {
        ts = rec.meta().ts;
        value = ValueRef::copyOf(rec.value());
        flags = rec.meta().flags;
        rec.meta().state = static_cast<uint8_t>(KeyState::Replay);
    });
    LOG_DEBUG("node %u replays key %llu at ts %s", env_.self(),
              static_cast<unsigned long long>(key), ts.toString().c_str());

    // Replay with the ORIGINAL timestamp (version and cid of the failed
    // coordinator) so the write lands in its already-linearized slot.
    Pending pending;
    pending.ts = ts;
    pending.value = std::move(value);
    pending.rmw = (flags & kRmwFlag) != 0;
    pending.replay = true;
    pending.acksNeeded = followersOf(view_, env_.self());
    registerPending(key, std::move(pending));
}

void
HermesReplica::drainStalled(Key key)
{
    auto it = stalled_.find(key);
    if (it == stalled_.end())
        return;
    store::ReadResult current = store_.read(key);
    bool valid = !current.found
                 || static_cast<KeyState>(current.meta.state)
                        == KeyState::Valid;
    if (!valid || pending_.count(key))
        return;

    // Reads first: every stalled read linearizes at this validation
    // moment and completes locally, so a read never waits behind queued
    // writes — only for the single write that invalidated the key
    // (§6.3.2: the stalled-read tail equals one write latency). Queued
    // updates then resume strictly in FIFO order among themselves.
    std::deque<Stalled> &queue = it->second;
    for (auto req_it = queue.begin(); req_it != queue.end();) {
        if (req_it->kind == Stalled::Kind::Read) {
            serveRead(current.value, std::move(req_it->readCb));
            req_it = queue.erase(req_it);
            --stalledCount_;
        } else {
            ++req_it;
        }
    }

    while (!queue.empty()) {
        current = store_.read(key);
        valid = !current.found
                || static_cast<KeyState>(current.meta.state)
                       == KeyState::Valid;
        if (!valid || pending_.count(key))
            return;
        Stalled req = std::move(queue.front());
        queue.pop_front();
        --stalledCount_;
        switch (req.kind) {
          case Stalled::Kind::Read:
            serveRead(current.value, std::move(req.readCb));
            break;
          case Stalled::Kind::Write:
            issueUpdate(key, std::move(req.value), false,
                        std::move(req.writeCb), nullptr, {});
            break;
          case Stalled::Kind::Cas:
            if (current.value != req.expected) {
                ++stats_.casFailedCompare;
                req.casCb(false, current.value);
            } else {
                issueUpdate(key, std::move(req.value), true, nullptr,
                            std::move(req.casCb), std::move(req.expected));
            }
            break;
        }
    }
    stalled_.erase(it);
}

bool
HermesReplica::admitSerial(Stalled &req, Key key)
{
    if (config_.interKeyConcurrency || pending_.empty())
        return true;
    serialQueue_.emplace_back(key, std::move(req));
    return false;
}

void
HermesReplica::pumpSerialQueue()
{
    if (config_.interKeyConcurrency)
        return;
    while (!serialQueue_.empty() && pending_.empty()) {
        auto [key, req] = std::move(serialQueue_.front());
        serialQueue_.pop_front();
        switch (req.kind) {
          case Stalled::Kind::Write:
            write(key, std::move(req.value), std::move(req.writeCb));
            break;
          case Stalled::Kind::Cas:
            cas(key, std::move(req.expected), std::move(req.value),
                std::move(req.casCb));
            break;
          case Stalled::Kind::Read:
            read(key, std::move(req.readCb));
            break;
        }
    }
}

void
HermesReplica::onViewChange(const MembershipView &view)
{
    if (view.epoch <= view_.epoch)
        return;
    // Members added by this m-update (shadow joins, §3.4): in-flight
    // writes must gather their ACKs too, otherwise a write committing
    // right after the join could be missing from both the new member's
    // chunk stream and its INV history.
    NodeSet joined;
    for (NodeId n : view.live) {
        if (!view_.isLive(n) && n != env_.self())
            joined.push_back(n);
    }
    view_ = view;
    LOG_INFO("node %u adopts view %s", env_.self(),
             view.toString().c_str());
    // A shadow that crashed or left mid-sync never asks for its final
    // chunk: its transfer cursor goes with its membership.
    std::erase_if(transfers_, [this](const auto &entry) {
        return !view_.isLive(entry.first);
    });

    if (!view_.isLive(env_.self())) {
        // Removed from the membership: stop serving (§2.4). Pending and
        // stalled requests die with the node; survivors replay as needed.
        halted_ = true;
        for (auto &kv : pending_)
            env_.cancelTimer(kv.second.mltTimer);
        pending_.clear();
        logWaits_.clear();
        stalled_.clear();
        stalledCount_ = 0;
        return;
    }

    std::vector<Key> keys;
    keys.reserve(pending_.size());
    for (auto &kv : pending_)
        keys.push_back(kv.first);
    for (Key key : keys) {
        auto it = pending_.find(key);
        if (it == pending_.end())
            continue;
        Pending &pending = it->second;
        if (pending.rmw && !pending.replay) {
            // CRMW-replay: reset gathered ACKs so the RMW re-validates its
            // conflict-freedom in the new membership.
            pending.acksNeeded = followersOf(view_, env_.self());
        } else {
            // Writes stop waiting for nodes that left the view and start
            // waiting for nodes that joined it.
            NodeSet filtered;
            for (NodeId n : pending.acksNeeded)
                if (view_.isLive(n))
                    filtered.push_back(n);
            for (NodeId n : joined)
                if (!contains(filtered, n))
                    filtered.push_back(n);
            pending.acksNeeded = std::move(filtered);
        }
        // Re-broadcast with the new epoch: INVs sent during the transition
        // were dropped by followers as epoch-stale.
        broadcastInv(key, pending);
        tryCommit(key);
    }

    // An outstanding LSC-free probe died with the old epoch; restart it
    // so the speculated reads validate against the new membership.
    if (checkInFlight_)
        startEpochCheck();
}

// ---------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------

KeyState
HermesReplica::keyState(Key key) const
{
    store::ReadResult result = store_.read(key);
    return result.found ? static_cast<KeyState>(result.meta.state)
                        : KeyState::Valid;
}

Timestamp
HermesReplica::keyTimestamp(Key key) const
{
    store::ReadResult result = store_.read(key);
    return result.found ? result.meta.ts : Timestamp{};
}

} // namespace hermes::proto
