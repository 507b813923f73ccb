/**
 * @file
 * The zero-copy value path, end to end: scatter/gather encode produces
 * byte-identical frames to the copy path at every value size (32 B – 4 KiB),
 * truncated large-value frames are still rejected, decoded messages alias
 * the transport receive slab and keep it alive past the transport's buffer
 * recycle (the ASan job is what makes this test meaningful), the debug copy
 * counters prove a received write's value is copied exactly once (into the
 * KVS entry), and a real TCP deployment round-trips KiB-sized values
 * through the gathered writev / slab-aliasing socket path.
 */

#include <gtest/gtest.h>

#include "app/tcp_service.hh"
#include "common/serialize.hh"
#include "common/value_ref.hh"
#include "hermes/messages.hh"
#include "net/message.hh"
#include "store/kvs.hh"
#include "support/free_port.hh"

namespace hermes
{
namespace
{

std::string
patternValue(size_t n, char seed = 'a')
{
    std::string v(n, '\0');
    for (size_t i = 0; i < n; ++i)
        v[i] = static_cast<char>(seed + i % 23);
    return v;
}

proto::InvMsg
makeInv(const std::string &value)
{
    proto::InvMsg inv;
    inv.src = 1;
    inv.epoch = 3;
    inv.key = 0xABCDull;
    inv.ts = {17, 2};
    inv.value = ValueRef(value);
    return inv;
}

// ---------------------------------------------------------------------
// ValueRef fundamentals: empty values and moved-from state are benign
// ---------------------------------------------------------------------

TEST(ValueRefBasics, EmptyValuesNeverExposeNullData)
{
    // data() must never be null (memcpy/string_view callers assume it),
    // whether the ref was default-constructed, copied from an empty
    // string, or decoded off the wire.
    ValueRef defaulted;
    EXPECT_NE(defaulted.data(), nullptr);
    EXPECT_TRUE(defaulted.empty());

    ValueRef copied{Value{}};
    EXPECT_NE(copied.data(), nullptr);
    EXPECT_EQ(copied, "");

    // An empty value survives a full store round-trip (the setValue
    // memcpy guard; under UBSan a null memcpy argument would abort).
    store::KvStore store(16, 64);
    store.withKey(1, [&](store::KeyRecord &rec) { rec.setValue(copied); });
    EXPECT_EQ(store.read(1).value, "");
}

TEST(ValueRefBasics, MovedFromRefsReadBackEmpty)
{
    // The protocols move ValueRefs at every hand-off; a stale read of a
    // moved-from ref must observe an empty value, never dangle into a
    // buffer the move recipient now solely owns.
    ValueRef source{Value(patternValue(200))};
    ValueRef sink = std::move(source);
    EXPECT_EQ(sink.size(), 200u);
    EXPECT_TRUE(source.empty());
    EXPECT_NE(source.data(), nullptr);
    EXPECT_EQ(source, "");

    ValueRef assigned;
    assigned = std::move(sink);
    EXPECT_EQ(assigned.size(), 200u);
    EXPECT_TRUE(sink.empty());
    EXPECT_EQ(sink, "");
}

// ---------------------------------------------------------------------
// Gather encode: frame bytes identical to the copy path, at every size
// ---------------------------------------------------------------------

TEST(ZeroCopyEncode, GatherFrameFlattensToCopyPathBytes)
{
    proto::registerHermesCodecs();
    for (size_t size : {size_t{0}, size_t{32}, kZeroCopyThreshold,
                        kZeroCopyThreshold + 1, size_t{1024},
                        size_t{4096}}) {
        proto::InvMsg inv = makeInv(patternValue(size));

        std::vector<uint8_t> copyPath;
        net::encodeMessage(inv, copyPath);

        WireFrame frame;
        net::encodeMessage(inv, frame);
        std::vector<uint8_t> gathered;
        frame.flattenTo(gathered);

        EXPECT_EQ(copyPath, gathered) << "value size " << size;
        EXPECT_EQ(frame.size(), copyPath.size()) << "value size " << size;
        // Above the threshold the value must ride as a gather segment
        // (zero bytes of it in the staging buffer); at or below it is
        // inlined and the frame has no segments.
        if (size > kZeroCopyThreshold) {
            ASSERT_EQ(frame.segments.size(), 1u) << "value size " << size;
            EXPECT_EQ(frame.segments[0].ref.size(), size);
            EXPECT_EQ(frame.staging.size(), copyPath.size() - size);
        } else {
            EXPECT_TRUE(frame.segments.empty()) << "value size " << size;
        }
    }
}

// ---------------------------------------------------------------------
// Large-value round-trips + truncation
// ---------------------------------------------------------------------

TEST(ZeroCopyWire, KiBValuesRoundTripAndPrefixesAreRejected)
{
    proto::registerHermesCodecs();
    for (size_t size : {size_t{1024}, size_t{4096}}) {
        const std::string payload = patternValue(size, 'K');
        proto::InvMsg inv = makeInv(payload);

        std::vector<uint8_t> bytes;
        net::encodeMessage(inv, bytes);
        ASSERT_EQ(bytes.size(), inv.wireSize() - 7);

        auto decoded = net::decodeMessage(bytes.data(), bytes.size());
        ASSERT_NE(decoded, nullptr) << "value size " << size;
        auto &out = static_cast<const proto::InvMsg &>(*decoded);
        EXPECT_EQ(out.value, payload);
        EXPECT_EQ(out.valueBytes(), size);

        // Every strict prefix — including cuts inside the value bytes —
        // must be rejected, never mis-decoded into a shorter value.
        for (size_t len = 0; len < bytes.size();
             len += (len < 32 ? 1 : 97)) {
            EXPECT_EQ(net::decodeMessage(bytes.data(), len), nullptr)
                << "prefix " << len << "/" << bytes.size();
        }
    }
}

// ---------------------------------------------------------------------
// Slab aliasing + lifetime
// ---------------------------------------------------------------------

TEST(ZeroCopySlab, DecodedMessageOutlivesTransportRecycle)
{
    proto::registerHermesCodecs();
    const std::string payload = patternValue(1500, 'S');
    proto::InvMsg inv = makeInv(payload);

    auto slab = std::make_shared<std::vector<uint8_t>>();
    net::encodeMessage(inv, *slab);
    const long base_count = slab.use_count();

    auto decoded = net::decodeMessage(slab->data(), slab->size(), slab);
    ASSERT_NE(decoded, nullptr);
    auto &out = static_cast<const proto::InvMsg &>(*decoded);
    // The decoded value aliases the slab (no copy) and pins it.
    EXPECT_TRUE(out.value.aliasesExternalBuffer());
    EXPECT_GT(slab.use_count(), base_count);
    EXPECT_EQ(static_cast<const void *>(out.value.data()),
              static_cast<const void *>(
                  reinterpret_cast<const char *>(slab->data())
                  + (slab->size() - payload.size())));

    // Transport recycles its buffer: drops its handle entirely. The
    // message's ValueRef must keep the bytes alive — under ASan a
    // dangling alias here is a hard failure, not flaky luck.
    slab.reset();
    EXPECT_EQ(out.value, payload);

    // Small values do NOT pin slabs (they were copied at decode).
    proto::InvMsg tiny = makeInv(patternValue(8));
    auto tinySlab = std::make_shared<std::vector<uint8_t>>();
    net::encodeMessage(tiny, *tinySlab);
    auto tinyDecoded =
        net::decodeMessage(tinySlab->data(), tinySlab->size(), tinySlab);
    ASSERT_NE(tinyDecoded, nullptr);
    EXPECT_FALSE(static_cast<const proto::InvMsg &>(*tinyDecoded)
                     .value.aliasesExternalBuffer());
    EXPECT_EQ(tinySlab.use_count(), 1); // nothing pins a copied value
}

// ---------------------------------------------------------------------
// Copy accounting: exactly one copy per received write, into the store
// ---------------------------------------------------------------------

#ifdef HERMES_VALUE_COPY_COUNTERS
TEST(ZeroCopyCounters, ReceivedWriteValueIsCopiedExactlyOnce)
{
    proto::registerHermesCodecs();
    const std::string payload = patternValue(2048, 'C');
    proto::InvMsg inv = makeInv(payload);
    auto slab = std::make_shared<std::vector<uint8_t>>();
    net::encodeMessage(inv, *slab);

    store::KvStore store(64, 4096);

    ValueCopyCounters::reset();
    // The receive half of one write hop: decode the INV off the slab,
    // apply its value to the local KVS under the seqlock — the follower
    // side of HermesReplica::onInv, and the only bytes that may move.
    auto decoded = net::decodeMessage(slab->data(), slab->size(), slab);
    ASSERT_NE(decoded, nullptr);
    const auto &msg = static_cast<const proto::InvMsg &>(*decoded);
    EXPECT_EQ(ValueCopyCounters::refCopies.load(), 0u)
        << "decode must alias the slab, not materialize a copy";

    store.withKey(msg.key, [&](store::KeyRecord &rec) {
        rec.meta().ts = msg.ts;
        rec.setValue(msg.value);
    });
    EXPECT_EQ(ValueCopyCounters::storeCopies.load(), 1u);
    EXPECT_EQ(ValueCopyCounters::refCopies.load(), 0u)
        << "exactly one value copy per write hop on receive";
    EXPECT_EQ(store.read(msg.key).value, payload);
}
#endif

// ---------------------------------------------------------------------
// End to end over real sockets: gathered writev out, slab aliasing in
// ---------------------------------------------------------------------

TEST(ZeroCopyTcp, KiBValuesReplicateThroughGatheredSockets)
{
    net::TcpConfig config;
    test::PortLane lane(21320, 3); // clear of test_tcp's 21000+ lanes
    config.basePort = lane.base();
    app::ReplicaOptions options;
    options.storeCapacity = 1 << 12;
    options.maxValueSize = 4096;
    options.hermesConfig.mlt = 50_ms;
    app::TcpKvService service(app::Protocol::Hermes, 3, options, config);
    service.start();

    app::KvClient writer(service.portOf(0));
    ASSERT_TRUE(writer.connected());
    const std::string oneKiB = patternValue(1024, 'x');
    const std::string fourKiB = patternValue(4096, 'y');
    ASSERT_TRUE(writer.write(11, oneKiB));
    ASSERT_TRUE(writer.write(12, fourKiB));
    ASSERT_TRUE(writer.write(14, "")); // empty values replicate too

    // Every replica holds the exact bytes (the INV broadcast carried
    // them through the gathered writev and the slab-aliasing decode).
    for (NodeId n = 0; n < 3; ++n) {
        app::KvClient reader(service.portOf(n));
        ASSERT_TRUE(reader.connected());
        EXPECT_EQ(reader.read(11).value_or("?"), oneKiB) << "node " << n;
        EXPECT_EQ(reader.read(12).value_or("?"), fourKiB) << "node " << n;
        EXPECT_EQ(reader.read(14).value_or("?"), "") << "node " << n;
    }

    // Overwrite churn at 4 KiB: many slab recycles while decoded
    // messages from earlier reads are still in flight.
    for (int i = 0; i < 32; ++i)
        ASSERT_TRUE(writer.write(13, patternValue(4096, 'a' + i % 20)));
    app::KvClient reader(service.portOf(2));
    EXPECT_EQ(reader.read(13).value_or("?"),
              patternValue(4096, 'a' + 31 % 20));
}

} // namespace
} // namespace hermes
