#include "net/batcher.hh"

#include "common/logging.hh"

namespace hermes::net
{

void
BatchMsg::serializePayload(BufWriter &writer) const
{
    writer.putU16(static_cast<uint16_t>(msgs.size()));
    for (const MessagePtr &msg : msgs) {
        // Each inner frame's length is known up front (kEnvelopeBytes +
        // payloadSize(), derived from the field list the encoder
        // writes; the golden-bytes and round-trip tests pin it), so the
        // envelope can encode inline through the SAME writer — in gather
        // mode the inner messages' values ride as scatter segments and
        // batching composes with the zero-copy path.
        writer.putU32(
            static_cast<uint32_t>(kEnvelopeBytes + msg->payloadSize()));
        encodeMessageInto(*msg, writer);
    }
}

void
registerBatchCodec()
{
    registerDecoder(MsgType::MsgBatch, [](BufReader &reader)
                                           -> std::shared_ptr<Message> {
        uint16_t count = reader.getU16();
        if (!reader.ok() || count == 0)
            return nullptr; // the Batcher never emits an empty envelope
        auto batch = std::make_shared<BatchMsg>();
        batch->msgs.reserve(count);
        for (uint16_t i = 0; i < count; ++i) {
            uint32_t len = reader.getU32();
            if (!reader.ok() || reader.remaining() < len)
                return nullptr;
            // Decode each inner frame in place (no body staging copy);
            // inner values above the zero-copy threshold alias the same
            // receive slab the outer frame lives in.
            std::shared_ptr<Message> inner =
                decodeMessage(reader.cursor(), len, reader.pin());
            reader.skip(len);
            // A malformed inner frame — or a nested batch, which no
            // sender produces — poisons the whole envelope: treat it as
            // loss rather than delivering a partial batch.
            if (!inner || inner->type() == MsgType::MsgBatch)
                return nullptr;
            batch->msgs.push_back(std::move(inner));
        }
        return batch;
    });
}

Batcher::Batcher(Env &under, BatchPolicy policy)
    : under_(under), policy_(policy)
{
    // The wire count is a u16: a larger window could silently wrap it on
    // encode, so the cap itself is clamped.
    if (policy_.maxBatchMsgs > 65535)
        policy_.maxBatchMsgs = 65535;
    registerBatchCodec();
    under_.setFlushHook([this] { flush(); });
}

Batcher::~Batcher()
{
    // Messages still staged at destruction die unsent: the only way a
    // window survives past a poll boundary is a node that crashed
    // mid-burst, and a crashed node's traffic is lost by definition.
    // (Flushing here would also send outside any transport context.)
    under_.setFlushHook(nullptr);
}

void
Batcher::send(NodeId dst, MessagePtr msg)
{
    if (!policy_.enabled()) {
        ++stats_.passedThrough;
        under_.send(dst, std::move(msg));
        return;
    }
    stage(dst, std::move(msg));
}

void
Batcher::broadcast(const NodeSet &dsts, MessagePtr msg)
{
    if (!policy_.enabled() || !policy_.batchBroadcasts) {
        ++stats_.passedThrough;
        under_.broadcast(dsts, std::move(msg));
        return;
    }
    // One staged copy per destination; flush() re-fuses copies that are
    // still alone in their window back into a single broadcast, so the
    // underlying transport's shared-payload fan-out is never lost.
    for (NodeId dst : dsts) {
        if (dst != self())
            stage(dst, msg);
    }
}

void
Batcher::stage(NodeId dst, MessagePtr msg)
{
    // Stamp the sender now: inner messages travel inside the envelope and
    // the transport only stamps the envelope itself.
    const_cast<Message &>(*msg).src = self();
    Window &window = pending_[dst];
    window.bytes += msg->wireSize();
    window.msgs.push_back(std::move(msg));
    ++stats_.staged;
    if (static_cast<int>(window.msgs.size()) >= policy_.maxBatchMsgs
            || static_cast<long>(window.bytes) >= policy_.maxBatchBytes) {
        // Cap overflow: close this destination's window early so one hot
        // peer can neither grow an unbounded batch nor delay its own
        // traffic past the cap.
        ++stats_.capFlushes;
        emit(dst, window);
        pending_.erase(dst);
    }
}

void
Batcher::emit(NodeId dst, Window &window)
{
    hermes_assert(!window.msgs.empty());
    if (window.msgs.size() == 1) {
        ++stats_.singlesFlushed;
        under_.send(dst, std::move(window.msgs.front()));
        return;
    }
    auto batch = std::make_shared<BatchMsg>();
    batch->msgs = std::move(window.msgs);
    ++stats_.batchesFlushed;
    stats_.messagesBatched += batch->msgs.size();
    under_.send(dst, std::move(batch));
}

void
Batcher::flush()
{
    if (pending_.empty()) {
        Env::flush(); // empty flush is a no-op beyond hook forwarding
        return;
    }
    std::map<NodeId, Window> windows;
    windows.swap(pending_); // emits may re-enter send() via hooks; keep
                            // this flush's windows isolated

    // Re-fuse pure broadcasts: destinations whose window holds exactly
    // the same single message go out as one underlying broadcast, which
    // keeps the transport's shared-payload/doorbell amortization for the
    // idle-cluster case where no batch ever fills. NodeId-ordered scans
    // keep the emission order deterministic.
    for (auto it = windows.begin(); it != windows.end(); ++it) {
        if (it->second.msgs.empty())
            continue; // already emitted as part of a fused group
        if (it->second.msgs.size() != 1) {
            emit(it->first, it->second);
            continue;
        }
        const MessagePtr &msg = it->second.msgs.front();
        NodeSet group{it->first};
        for (auto peer = std::next(it); peer != windows.end(); ++peer) {
            if (peer->second.msgs.size() == 1
                    && peer->second.msgs.front() == msg)
                group.push_back(peer->first);
        }
        if (group.size() == 1) {
            emit(it->first, it->second);
            continue;
        }
        for (auto peer = std::next(it); peer != windows.end(); ++peer) {
            if (peer->second.msgs.size() == 1
                    && peer->second.msgs.front() == msg)
                peer->second.msgs.clear();
        }
        ++stats_.broadcastsCollapsed;
        under_.broadcast(group, msg);
        it->second.msgs.clear();
    }
    Env::flush();
}

size_t
Batcher::pendingMessages() const
{
    size_t count = 0;
    for (const auto &kv : pending_)
        count += kv.second.msgs.size();
    return count;
}

} // namespace hermes::net
