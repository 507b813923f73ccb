#include "net/message.hh"

#include <atomic>

#include "common/logging.hh"

namespace hermes::net
{

const char *
msgTypeName(MsgType type)
{
    switch (type) {
      case MsgType::HermesInv: return "INV";
      case MsgType::HermesAck: return "ACK";
      case MsgType::HermesVal: return "VAL";
      case MsgType::HermesStateReq: return "STATE_REQ";
      case MsgType::HermesStateChunk: return "STATE_CHUNK";
      case MsgType::HermesEpochCheck: return "EPOCH_CHECK";
      case MsgType::HermesEpochCheckAck: return "EPOCH_CHECK_ACK";
      case MsgType::CraqWrite: return "CRAQ_WRITE";
      case MsgType::CraqWriteAck: return "CRAQ_WACK";
      case MsgType::CraqVersionQuery: return "CRAQ_VQ";
      case MsgType::CraqVersionReply: return "CRAQ_VR";
      case MsgType::CraqForward: return "CRAQ_FWD";
      case MsgType::ZabForward: return "ZAB_FWD";
      case MsgType::ZabPropose: return "ZAB_PROP";
      case MsgType::ZabAck: return "ZAB_ACK";
      case MsgType::ZabCommit: return "ZAB_COMMIT";
      case MsgType::LockstepSubmit: return "LS_SUBMIT";
      case MsgType::LockstepRound: return "LS_ROUND";
      case MsgType::LockstepAck: return "LS_ACK";
      case MsgType::RmHeartbeat: return "RM_HB";
      case MsgType::RmPrepare: return "RM_PREPARE";
      case MsgType::RmPromise: return "RM_PROMISE";
      case MsgType::RmAccept: return "RM_ACCEPT";
      case MsgType::RmAccepted: return "RM_ACCEPTED";
      case MsgType::RmDecide: return "RM_DECIDE";
      case MsgType::ClientRequest: return "CLIENT_REQ";
      case MsgType::ClientReply: return "CLIENT_REP";
    }
    return "UNKNOWN";
}

namespace
{
void
encodeMessageInto(const Message &msg, BufWriter &writer)
{
    writer.putU8(static_cast<uint8_t>(msg.type()));
    writer.putU32(msg.src);
    writer.putU32(msg.epoch);
    msg.serializePayload(writer);
}

// A fixed table of atomic pointers, not a map: every service/client
// constructor re-runs its family's registerCodecs() while other
// threads' event loops may be decoding other families concurrently,
// so registration must not restructure anything a reader traverses.
// First registration wins (families always re-register identical
// decoders), installed entries are immutable, and readers pair an
// acquire load with the registering CAS's release.
std::atomic<const MessageDecoder *> &
decoderSlot(MsgType type)
{
    static std::atomic<const MessageDecoder *> table[256] = {};
    return table[static_cast<uint8_t>(type)];
}
} // namespace

void
registerDecoder(MsgType type, MessageDecoder decoder)
{
    auto &slot = decoderSlot(type);
    if (slot.load(std::memory_order_acquire) != nullptr)
        return; // already registered (idempotent re-init)
    const MessageDecoder *fresh = new MessageDecoder(std::move(decoder));
    const MessageDecoder *expected = nullptr;
    if (!slot.compare_exchange_strong(expected, fresh,
                                      std::memory_order_release,
                                      std::memory_order_acquire))
        delete fresh; // lost the install race; the winner's is identical
}

const MessageDecoder *
findDecoder(MsgType type)
{
    return decoderSlot(type).load(std::memory_order_acquire);
}

void
encodeMessage(const Message &msg, std::vector<uint8_t> &out)
{
    BufWriter writer(out);
    encodeMessageInto(msg, writer);
}

void
encodeMessage(const Message &msg, WireFrame &frame)
{
    BufWriter writer(frame);
    encodeMessageInto(msg, writer);
}

std::shared_ptr<Message>
decodeMessage(const uint8_t *data, size_t len,
              std::shared_ptr<const void> pin)
{
    BufReader reader(data, len, std::move(pin));
    auto type = static_cast<MsgType>(reader.getU8());
    NodeId src = reader.getU32();
    Epoch epoch = reader.getU32();
    if (!reader.ok())
        return nullptr;
    const MessageDecoder *decoder = findDecoder(type);
    if (!decoder) {
        LOG_WARN("no decoder for message type %u",
                 static_cast<unsigned>(type));
        return nullptr;
    }
    std::shared_ptr<Message> msg = (*decoder)(reader);
    if (!msg || !reader.ok())
        return nullptr;
    msg->src = src;
    msg->epoch = epoch;
    return msg;
}

} // namespace hermes::net
