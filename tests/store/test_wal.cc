/**
 * @file
 * WAL unit suite: golden bytes freezing the record format, torn-tail
 * recovery (truncation at every byte offset, bit-flipped CRCs — discard
 * the tail, never crash, never replay garbage), fsync-policy accounting,
 * reopen-and-append cycles, the zero-filled space group commits write
 * into (crash images, torn records before the zeros, multi-chunk
 * replays), the per-key recovery lock table, and group commit on a
 * writer thread.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <thread>
#include <vector>

#include "store/wal.hh"
#include "support/fsync_hold.hh"
#include "support/temp_dir.hh"

namespace hermes::store
{
namespace
{

using test::TempDir;

std::vector<unsigned char>
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                      std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path, const std::vector<unsigned char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** Little-endian byte composition, independent of the implementation. */
void
putLe32(std::vector<unsigned char> &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<unsigned char>(v >> (8 * i)));
}

void
putLe64(std::vector<unsigned char> &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<unsigned char>(v >> (8 * i)));
}

/** The frozen 8-byte file header: magic "HWAL" + format version. */
std::vector<unsigned char>
fileHeader(uint32_t version = Wal::kFormatVersion)
{
    std::vector<unsigned char> out;
    out.push_back('H');
    out.push_back('W');
    out.push_back('A');
    out.push_back('L');
    putLe32(out, version);
    return out;
}

/** The frozen on-disk encoding of one record, built by hand. */
std::vector<unsigned char>
encodeRecord(uint32_t shard, Key key, Timestamp ts, uint8_t flags,
             std::string_view value, uint32_t map_epoch = 1)
{
    std::vector<unsigned char> payload;
    putLe32(payload, shard);
    putLe64(payload, key);
    putLe32(payload, ts.version);
    putLe32(payload, ts.cid);
    payload.push_back(flags);
    putLe32(payload, map_epoch);
    putLe32(payload, static_cast<uint32_t>(value.size()));
    payload.insert(payload.end(), value.begin(), value.end());

    std::vector<unsigned char> out;
    putLe32(out, static_cast<uint32_t>(payload.size()));
    putLe32(out, crc32(payload.data(), payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

/** One record copied out of the scan's view (which dies with the
 *  visitor call). */
struct Recovered
{
    uint32_t shard = 0;
    Key key = 0;
    Timestamp ts{};
    uint8_t flags = 0;
    uint32_t mapEpoch = 0;
    std::string value;
};

/** A visitor appending every record it is handed to @p out. */
WalVisitor
collectInto(std::vector<Recovered> &out)
{
    return [&out](const WalRecordView &rec) {
        out.push_back(Recovered{rec.shard, rec.key, rec.ts, rec.flags,
                                rec.mapEpoch, std::string(rec.value)});
    };
}

/** Wal::ScanResult with the visited records collected alongside. */
struct Scanned
{
    std::vector<Recovered> records;
    size_t cleanBytes = 0;
    size_t tornBytes = 0;
    uint32_t formatVersion = 0;
};

Scanned
scanAll(const std::string &path)
{
    Scanned out;
    Wal::ScanResult result = Wal::scan(path, collectInto(out.records));
    EXPECT_EQ(result.records, out.records.size());
    out.cleanBytes = result.cleanBytes;
    out.tornBytes = result.tornBytes;
    out.formatVersion = result.formatVersion;
    return out;
}

// ---------------------------------------------------------------------
// Format freeze
// ---------------------------------------------------------------------

TEST(WalFormat, Crc32MatchesKnownVectors)
{
    // The IEEE 802.3 check value: CRC32("123456789") — freezes the
    // polynomial, reflection, init and final-xor all at once.
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32("", 0), 0x00000000u);
    // Incremental folding agrees with the one-shot form at every split.
    const char data[] = "hermes-wal-record";
    uint32_t whole = crc32(data, sizeof(data) - 1);
    for (size_t split = 0; split <= sizeof(data) - 1; ++split) {
        uint32_t state = crc32Init();
        state = crc32Update(state, data, split);
        state = crc32Update(state, data + split, sizeof(data) - 1 - split);
        EXPECT_EQ(crc32Final(state), whole) << "split " << split;
    }
}

TEST(WalFormat, GoldenBytesFreezeRecordLayout)
{
    // Every field at a distinctive value; any layout, width or
    // endianness change must fail here before it silently orphans
    // deployed logs. The expected bytes are composed by hand above (the
    // CRC word via crc32(), itself frozen by the known-vector test).
    TempDir dir("wal-golden");
    const std::string path = dir.file("golden.wal");
    {
        WalConfig config;
        config.path = path;
        config.fsync = FsyncPolicy::Every;
        config.shard = 2;
        Wal wal(config);
        wal.append(0x1122334455667788ull, Timestamp{7, 3}, 0x01,
                   ValueRef("hello"));
    }
    std::vector<unsigned char> expect = fileHeader();
    std::vector<unsigned char> record =
        encodeRecord(2, 0x1122334455667788ull, Timestamp{7, 3}, 0x01,
                     "hello");
    expect.insert(expect.end(), record.begin(), record.end());
    // Spot-check the literal layout too, so the helpers can't drift in
    // lockstep with the implementation: the "HWAL"+version file header,
    // then a 34-byte payload with the key bytes little-endian at payload
    // offset 4. (The payload grew from 30 to 34 bytes when the slot-map
    // epoch stamp landed at payload offset 21 — the change that bumped
    // the file header's format version to 2.)
    ASSERT_EQ(expect.size(), Wal::kFileHeaderBytes + Wal::kFrameHeaderBytes
                                 + Wal::kPayloadHeaderBytes + 5);
    EXPECT_EQ(expect[0], 'H'); // file magic
    EXPECT_EQ(expect[3], 'L');
    EXPECT_EQ(expect[4], 2u);  // format version, little-endian
    EXPECT_EQ(expect[8], 34u); // payloadLen LSB = 29 + strlen("hello")
    EXPECT_EQ(expect[16], 2u); // shard LSB right after the CRC word
    EXPECT_EQ(expect[20], 0x88u); // key LSB, little-endian
    EXPECT_EQ(expect[27], 0x11u); // key MSB
    EXPECT_EQ(expect[37], 1u); // slot-map epoch LSB at payload offset 21
    EXPECT_EQ(fileBytes(path), expect);
}

TEST(WalFormat, ScanRoundTripsAllFields)
{
    TempDir dir("wal-roundtrip");
    const std::string path = dir.file("log.wal");
    // One value small enough to inline in the staging buffer, one large
    // enough to ride as a zero-copy segment: both disciplines must land
    // identical record framing.
    std::string big(300, 'x');
    big[0] = 'B';
    {
        WalConfig config;
        config.path = path;
        config.fsync = FsyncPolicy::Never;
        config.shard = 7;
        Wal wal(config);
        wal.append(11, Timestamp{5, 1}, 0, ValueRef("small"));
        wal.append(22, Timestamp{9, 2}, 0x01, ValueRef(big));
        wal.flush();
    }
    Scanned result = scanAll(path);
    ASSERT_EQ(result.records.size(), 2u);
    EXPECT_EQ(result.tornBytes, 0u);
    EXPECT_EQ(result.records[0].shard, 7u);
    EXPECT_EQ(result.records[0].key, 11u);
    EXPECT_EQ(result.records[0].ts, (Timestamp{5, 1}));
    EXPECT_EQ(result.records[0].flags, 0u);
    EXPECT_EQ(result.records[0].value, "small");
    EXPECT_EQ(result.records[1].key, 22u);
    EXPECT_EQ(result.records[1].ts, (Timestamp{9, 2}));
    EXPECT_EQ(result.records[1].flags, 0x01u);
    EXPECT_EQ(result.records[1].value, big);
}

// ---------------------------------------------------------------------
// Torn tails and corruption
// ---------------------------------------------------------------------

class WalTornTail : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = dir_.file("torn.wal");
        WalConfig config;
        config.path = path_;
        config.fsync = FsyncPolicy::Every;
        Wal wal(config);
        wal.append(1, Timestamp{1, 0}, 0, ValueRef("first"));
        wal.append(2, Timestamp{2, 0}, 0, ValueRef("second"));
        wal.append(3, Timestamp{3, 0}, 0, ValueRef("final-record"));
        clean_ = fileBytes(path_);
        prefix2_ = Wal::kFileHeaderBytes
                   + 2 * (Wal::kFrameHeaderBytes + Wal::kPayloadHeaderBytes)
                   + strlen("first") + strlen("second");
        ASSERT_EQ(clean_.size(), prefix2_ + Wal::kFrameHeaderBytes
                                     + Wal::kPayloadHeaderBytes
                                     + strlen("final-record"));
    }

    TempDir dir_{"wal-torn"};
    std::string path_;
    std::vector<unsigned char> clean_;
    size_t prefix2_ = 0; ///< bytes up to the end of the second record
};

TEST_F(WalTornTail, TruncationAtEveryByteOffsetOfFinalRecord)
{
    // A crash can land mid-write at any byte: for every cut inside the
    // final record the first two records survive and the partial tail is
    // discarded — never a crash, never a garbage replay.
    for (size_t cut = prefix2_; cut < clean_.size(); ++cut) {
        std::vector<unsigned char> torn(clean_.begin(),
                                        clean_.begin() + cut);
        writeBytes(path_, torn);
        Scanned result = scanAll(path_);
        ASSERT_EQ(result.records.size(), 2u) << "cut at " << cut;
        EXPECT_EQ(result.records[1].value, "second") << "cut at " << cut;
        EXPECT_EQ(result.cleanBytes, prefix2_) << "cut at " << cut;
        EXPECT_EQ(result.tornBytes, cut - prefix2_) << "cut at " << cut;
    }
    // And the untouched log still scans whole.
    writeBytes(path_, clean_);
    EXPECT_EQ(scanAll(path_).records.size(), 3u);
}

TEST_F(WalTornTail, BitFlippedCrcDiscardsTail)
{
    // Flip one bit in the final record's CRC word.
    std::vector<unsigned char> corrupt = clean_;
    corrupt[prefix2_ + 4] ^= 0x01;
    writeBytes(path_, corrupt);
    Scanned result = scanAll(path_);
    ASSERT_EQ(result.records.size(), 2u);
    EXPECT_EQ(result.tornBytes, clean_.size() - prefix2_);
}

TEST_F(WalTornTail, BitFlippedValueByteDiscardsTail)
{
    // Payload corruption is caught by the CRC, not by luck.
    std::vector<unsigned char> corrupt = clean_;
    corrupt[clean_.size() - 1] ^= 0x80;
    writeBytes(path_, corrupt);
    EXPECT_EQ(scanAll(path_).records.size(), 2u);
}

TEST_F(WalTornTail, CorruptFirstRecordRecoversNothing)
{
    // The scan stops at the first bad record: everything after it is
    // unreachable (its framing can't be trusted), so corruption at the
    // head forfeits the whole log — by design, loudly countable.
    std::vector<unsigned char> corrupt = clean_;
    // First record's shard byte (just past the file header + frame).
    corrupt[Wal::kFileHeaderBytes + Wal::kFrameHeaderBytes] ^= 0xFF;
    writeBytes(path_, corrupt);
    Scanned result = scanAll(path_);
    EXPECT_EQ(result.records.size(), 0u);
    EXPECT_EQ(result.cleanBytes, Wal::kFileHeaderBytes);
    EXPECT_EQ(result.tornBytes, clean_.size() - Wal::kFileHeaderBytes);
}

TEST_F(WalTornTail, AbsurdLengthPrefixDiscardsTail)
{
    // A length prefix pointing past EOF (or below the fixed header) is
    // framing corruption, handled exactly like a short read.
    std::vector<unsigned char> corrupt = clean_;
    corrupt[prefix2_ + 3] = 0x7F; // final record's length, high byte
    writeBytes(path_, corrupt);
    EXPECT_EQ(scanAll(path_).records.size(), 2u);
    corrupt = clean_;
    corrupt[prefix2_] = 3; // < kPayloadHeaderBytes
    corrupt[prefix2_ + 1] = 0;
    corrupt[prefix2_ + 2] = 0;
    corrupt[prefix2_ + 3] = 0;
    writeBytes(path_, corrupt);
    EXPECT_EQ(scanAll(path_).records.size(), 2u);
}

TEST_F(WalTornTail, OpeningTornLogTruncatesAndAppendsCleanly)
{
    // The constructor discards the torn tail on disk too, so the next
    // append starts at the clean prefix instead of burying a new record
    // behind garbage.
    std::vector<unsigned char> torn(clean_.begin(),
                                    clean_.begin() + prefix2_ + 5);
    writeBytes(path_, torn);
    {
        WalConfig config;
        config.path = path_;
        config.fsync = FsyncPolicy::Every;
        std::vector<Recovered> recovered;
        Wal wal(config, collectInto(recovered));
        EXPECT_EQ(recovered.size(), 2u);
        EXPECT_EQ(wal.stats().recordsRecovered, 2u);
        EXPECT_EQ(wal.stats().tornBytesDiscarded, 5u);
        wal.append(4, Timestamp{4, 0}, 0, ValueRef("after-recovery"));
    }
    Scanned result = scanAll(path_);
    ASSERT_EQ(result.records.size(), 3u);
    EXPECT_EQ(result.records[2].value, "after-recovery");
    EXPECT_EQ(result.tornBytes, 0u);
}

TEST(WalScan, MissingFileScansEmpty)
{
    TempDir dir("wal-missing");
    Scanned result = scanAll(dir.file("never-created.wal"));
    EXPECT_TRUE(result.records.empty());
    EXPECT_EQ(result.cleanBytes, 0u);
    EXPECT_EQ(result.tornBytes, 0u);
}

// ---------------------------------------------------------------------
// File-format versioning and upgrade
// ---------------------------------------------------------------------

/** The headerless version-1 record encoding: a 25-byte payload header
 *  with no slot-map epoch field (it predates elastic sharding). */
std::vector<unsigned char>
encodeRecordV1(uint32_t shard, Key key, Timestamp ts, uint8_t flags,
               std::string_view value)
{
    std::vector<unsigned char> payload;
    putLe32(payload, shard);
    putLe64(payload, key);
    putLe32(payload, ts.version);
    putLe32(payload, ts.cid);
    payload.push_back(flags);
    putLe32(payload, static_cast<uint32_t>(value.size()));
    payload.insert(payload.end(), value.begin(), value.end());

    std::vector<unsigned char> out;
    putLe32(out, static_cast<uint32_t>(payload.size()));
    putLe32(out, crc32(payload.data(), payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

TEST(WalVersioning, V1LogConvertsOnOpen)
{
    // A pre-upgrade headerless log must survive the upgrade: its records
    // are recovered (with the initial map epoch, 1 — v1 predates elastic
    // sharding) and the file is rewritten in the current format, so a
    // restart never silently discards durable pre-upgrade data.
    TempDir dir("wal-v1");
    const std::string path = dir.file("legacy.wal");
    std::vector<unsigned char> v1;
    for (const std::vector<unsigned char> &rec :
         {encodeRecordV1(3, 41, Timestamp{5, 1}, 0x01, "legacy-one"),
          encodeRecordV1(3, 42, Timestamp{6, 2}, 0, "legacy-two")})
        v1.insert(v1.end(), rec.begin(), rec.end());
    writeBytes(path, v1);

    Scanned before = scanAll(path);
    EXPECT_EQ(before.formatVersion, 1u);
    ASSERT_EQ(before.records.size(), 2u);

    {
        WalConfig config;
        config.path = path;
        config.fsync = FsyncPolicy::Every;
        config.shard = 3;
        std::vector<Recovered> recovered;
        Wal wal(config, collectInto(recovered));
        ASSERT_EQ(recovered.size(), 2u);
        EXPECT_EQ(recovered[0].key, 41u);
        EXPECT_EQ(recovered[0].value, "legacy-one");
        EXPECT_EQ(recovered[0].mapEpoch, 1u);
        EXPECT_EQ(recovered[1].key, 42u);
        EXPECT_EQ(recovered[1].mapEpoch, 1u);
        // Appends after the conversion land in the same (now v2) file.
        wal.append(43, Timestamp{7, 0}, 0, ValueRef("post-upgrade"));
    }

    Scanned after = scanAll(path);
    EXPECT_EQ(after.formatVersion, Wal::kFormatVersion);
    ASSERT_EQ(after.records.size(), 3u);
    EXPECT_EQ(after.records[0].key, 41u);
    EXPECT_EQ(after.records[0].value, "legacy-one");
    EXPECT_EQ(after.records[0].ts, (Timestamp{5, 1}));
    EXPECT_EQ(after.records[0].flags, 0x01u);
    EXPECT_EQ(after.records[0].mapEpoch, 1u);
    EXPECT_EQ(after.records[2].key, 43u);
    EXPECT_EQ(after.records[2].value, "post-upgrade");
    EXPECT_EQ(after.tornBytes, 0u);
    // The converted file leads with the current header.
    std::vector<unsigned char> bytes = fileBytes(path);
    ASSERT_GE(bytes.size(), Wal::kFileHeaderBytes);
    EXPECT_EQ(std::vector<unsigned char>(
                  bytes.begin(), bytes.begin() + Wal::kFileHeaderBytes),
              fileHeader());
}

TEST(WalVersioning, V1UpgradeReplacesStaleUpgradeFile)
{
    // A crash mid-upgrade leaves the intact v1 log beside a partial
    // `<path>.upgrade` rewrite. Reopening must discard that leftover and
    // redo the upgrade from the log: same records, no temp file left.
    // The log is large enough that the rewrite streams out in several
    // writes rather than one.
    TempDir dir("wal-v1-stale");
    const std::string path = dir.file("legacy.wal");
    const std::string upgrade_path = path + ".upgrade";
    std::vector<Recovered> expect;
    std::vector<unsigned char> v1;
    for (uint32_t i = 0; i < 200; ++i) {
        std::string value(1024, static_cast<char>('a' + i % 26));
        value += std::to_string(i);
        Timestamp ts{i + 1, i % 3};
        uint8_t flags = static_cast<uint8_t>(i & 1);
        std::vector<unsigned char> rec =
            encodeRecordV1(4, 1000 + i, ts, flags, value);
        v1.insert(v1.end(), rec.begin(), rec.end());
        expect.push_back(Recovered{4, 1000 + i, ts, flags, 1, value});
    }
    ASSERT_GT(v1.size(), 2 * Wal::kScanBufferBytes);
    writeBytes(path, v1);
    std::vector<unsigned char> stale = fileHeader();
    stale.resize(stale.size() + 100, 0xAB); // a torn partial rewrite
    writeBytes(upgrade_path, stale);

    auto sameRecords = [&expect](const std::vector<Recovered> &got) {
        ASSERT_EQ(got.size(), expect.size());
        for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].shard, expect[i].shard) << "record " << i;
            EXPECT_EQ(got[i].key, expect[i].key) << "record " << i;
            EXPECT_EQ(got[i].ts, expect[i].ts) << "record " << i;
            EXPECT_EQ(got[i].flags, expect[i].flags) << "record " << i;
            EXPECT_EQ(got[i].mapEpoch, expect[i].mapEpoch) << "record " << i;
            EXPECT_EQ(got[i].value, expect[i].value) << "record " << i;
        }
    };
    {
        WalConfig config;
        config.path = path;
        config.fsync = FsyncPolicy::Every;
        config.shard = 4;
        std::vector<Recovered> recovered;
        Wal wal(config, collectInto(recovered));
        sameRecords(recovered);
        EXPECT_EQ(wal.stats().recordsRecovered, expect.size());
    }
    EXPECT_FALSE(std::ifstream(upgrade_path).good())
        << "the upgrade left its temp file behind";
    Scanned after = scanAll(path);
    EXPECT_EQ(after.formatVersion, Wal::kFormatVersion);
    EXPECT_EQ(after.tornBytes, 0u);
    sameRecords(after.records);
}

TEST(WalVersioning, TornFileHeaderTruncatesAndAppendsCleanly)
{
    // A crash during file creation can leave fewer than kFileHeaderBytes
    // on disk: that is a torn tail (no record fits in fewer bytes under
    // any format), not an unknown format — recover nothing, truncate,
    // start fresh.
    TempDir dir("wal-torn-header");
    const std::string path = dir.file("torn-header.wal");
    std::vector<unsigned char> partial = fileHeader();
    partial.resize(5);
    writeBytes(path, partial);

    Scanned result = scanAll(path);
    EXPECT_TRUE(result.records.empty());
    EXPECT_EQ(result.cleanBytes, 0u);
    EXPECT_EQ(result.tornBytes, 5u);

    {
        WalConfig config;
        config.path = path;
        config.fsync = FsyncPolicy::Every;
        std::vector<Recovered> recovered;
        Wal wal(config, collectInto(recovered));
        EXPECT_TRUE(recovered.empty());
        wal.append(1, Timestamp{1, 0}, 0, ValueRef("fresh"));
    }
    Scanned reopened = scanAll(path);
    ASSERT_EQ(reopened.records.size(), 1u);
    EXPECT_EQ(reopened.records[0].value, "fresh");
    EXPECT_EQ(reopened.tornBytes, 0u);
}

TEST(WalVersioningDeathTest, FutureVersionRefusedLoudly)
{
    // A log written by a NEWER build is not corruption: scanning it as a
    // torn tail would discard every record. It must refuse loudly.
    TempDir dir("wal-future");
    const std::string path = dir.file("future.wal");
    writeBytes(path, fileHeader(Wal::kFormatVersion + 1));
    EXPECT_DEATH(scanAll(path), "format version");
    // Opening it refuses the same way, before touching the file.
    WalConfig config;
    config.path = path;
    std::vector<Recovered> recovered;
    EXPECT_DEATH(Wal(config, collectInto(recovered)), "format version");
    EXPECT_EQ(fileBytes(path), fileHeader(Wal::kFormatVersion + 1));
}

TEST(WalVersioningDeathTest, UnrecognizedFileRefusedLoudly)
{
    // No header magic and no v1 record at the head: whatever this file
    // is, truncating it to nothing would silently destroy it.
    TempDir dir("wal-garbage");
    const std::string path = dir.file("garbage.wal");
    writeBytes(path, std::vector<unsigned char>(16, 0xFF));
    EXPECT_DEATH(scanAll(path), "no known WAL format");
    WalConfig config;
    config.path = path;
    std::vector<Recovered> recovered;
    EXPECT_DEATH(Wal(config, collectInto(recovered)),
                 "no known WAL format");
    EXPECT_EQ(fileBytes(path), std::vector<unsigned char>(16, 0xFF));
}

// ---------------------------------------------------------------------
// Streaming decoder: bounded read buffer, records visited as views
// ---------------------------------------------------------------------

constexpr size_t kRecordOverhead =
    Wal::kFrameHeaderBytes + Wal::kPayloadHeaderBytes;

TEST(WalStreaming, RecordsStraddlingTheReadBufferBoundary)
{
    // Slide the second record's start across the end of the first
    // buffer fill one byte at a time, so its value, then every byte of
    // its payload header and its frame header, takes a turn straddling
    // the boundary; the third record must come through intact behind it.
    TempDir dir("wal-straddle");
    const std::string path = dir.file("straddle.wal");
    const std::string third(3000, 'c');
    for (size_t start = Wal::kScanBufferBytes - kRecordOverhead - 24;
         start <= Wal::kScanBufferBytes + 1; ++start) {
        std::string first(start - Wal::kFileHeaderBytes - kRecordOverhead,
                          'a');
        std::string second = "straddler-" + std::to_string(start);
        std::remove(path.c_str());
        {
            WalConfig config;
            config.path = path;
            config.fsync = FsyncPolicy::Never;
            Wal wal(config);
            wal.append(1, Timestamp{1, 0}, 0, ValueRef(first));
            wal.append(2, Timestamp{2, 1}, 0x01, ValueRef(second));
            wal.append(3, Timestamp{3, 2}, 0, ValueRef(third));
        }
        Scanned result = scanAll(path);
        ASSERT_EQ(result.records.size(), 3u) << "second at " << start;
        EXPECT_EQ(result.records[0].value, first) << "second at " << start;
        EXPECT_EQ(result.records[1].key, 2u) << "second at " << start;
        EXPECT_EQ(result.records[1].ts, (Timestamp{2, 1}))
            << "second at " << start;
        EXPECT_EQ(result.records[1].flags, 0x01u) << "second at " << start;
        EXPECT_EQ(result.records[1].value, second) << "second at " << start;
        EXPECT_EQ(result.records[2].value, third) << "second at " << start;
        EXPECT_EQ(result.tornBytes, 0u) << "second at " << start;
    }
}

TEST(WalStreaming, RecordLargerThanTheReadBuffer)
{
    // A 256 KiB value cannot fit the initial buffer: the scan grows it
    // to that one record, and records on either side — including a
    // second oversized one reusing the grown buffer — still decode.
    TempDir dir("wal-huge");
    const std::string path = dir.file("huge.wal");
    std::string huge(256 * 1024, '\0');
    for (size_t i = 0; i < huge.size(); ++i)
        huge[i] = static_cast<char>(i * 31 + i / 977);
    std::string huger = huge + huge;
    {
        WalConfig config;
        config.path = path;
        config.fsync = FsyncPolicy::Never;
        Wal wal(config);
        wal.append(1, Timestamp{1, 0}, 0, ValueRef("before"));
        wal.append(2, Timestamp{2, 0}, 0x01, ValueRef(huge));
        wal.append(3, Timestamp{3, 0}, 0, ValueRef("between"));
        wal.append(4, Timestamp{4, 0}, 0, ValueRef(huger));
        wal.append(5, Timestamp{5, 0}, 0, ValueRef("after"));
    }
    std::vector<unsigned char> clean = fileBytes(path);
    Scanned result = scanAll(path);
    ASSERT_EQ(result.records.size(), 5u);
    EXPECT_EQ(result.records[0].value, "before");
    EXPECT_EQ(result.records[1].key, 2u);
    EXPECT_EQ(result.records[1].flags, 0x01u);
    EXPECT_TRUE(result.records[1].value == huge);
    EXPECT_EQ(result.records[2].value, "between");
    EXPECT_TRUE(result.records[3].value == huger);
    EXPECT_EQ(result.records[4].value, "after");
    EXPECT_EQ(result.cleanBytes, clean.size());
    EXPECT_EQ(result.tornBytes, 0u);

    // Torn in the middle of the oversized record: it and everything
    // after it is discarded, and nothing past it is visited.
    const size_t prefix1 = Wal::kFileHeaderBytes + kRecordOverhead + 6;
    for (size_t cut : {prefix1 + 4, prefix1 + kRecordOverhead + 100,
                       prefix1 + kRecordOverhead + huge.size() - 1}) {
        writeBytes(path, std::vector<unsigned char>(clean.begin(),
                                                    clean.begin() + cut));
        Scanned torn = scanAll(path);
        ASSERT_EQ(torn.records.size(), 1u) << "cut at " << cut;
        EXPECT_EQ(torn.records[0].value, "before") << "cut at " << cut;
        EXPECT_EQ(torn.cleanBytes, prefix1) << "cut at " << cut;
        EXPECT_EQ(torn.tornBytes, cut - prefix1) << "cut at " << cut;
    }
}

TEST(WalStreaming, ReplayOfAMultiMegabyteLogVisitsEveryRecordInOrder)
{
    // A log of more than 8 MiB — over a hundred buffer fills — replays
    // through the constructor's visitor record by record, in append
    // order, with every field and every value byte intact.
    TempDir dir("wal-big");
    const std::string path = dir.file("big.wal");
    std::vector<Recovered> expect;
    size_t bytes = 0;
    uint64_t rng = 0x9E3779B97F4A7C15ull;
    auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    {
        WalConfig config;
        config.path = path;
        config.fsync = FsyncPolicy::Never;
        config.shard = 9;
        Wal wal(config);
        for (uint32_t i = 0; bytes < (8u << 20) + 4096; ++i) {
            if (i % 1000 == 0)
                wal.setMapEpoch(1 + i / 1000);
            std::string value(next() % 2048, '\0');
            for (char &c : value)
                c = static_cast<char>(next());
            Recovered rec{9, next(), Timestamp{i + 1, i % 7},
                          static_cast<uint8_t>(i & 1), wal.mapEpoch(),
                          value};
            wal.append(rec.key, rec.ts, rec.flags, ValueRef(rec.value));
            bytes += kRecordOverhead + value.size();
            expect.push_back(std::move(rec));
            if (i % 64 == 0)
                wal.flush();
        }
    }
    ASSERT_GE(fileBytes(path).size(), 8u << 20);

    size_t visited = 0;
    size_t mismatched = 0;
    WalConfig config;
    config.path = path;
    config.shard = 9;
    Wal wal(config, [&](const WalRecordView &rec) {
        const Recovered *want =
            visited < expect.size() ? &expect[visited] : nullptr;
        if (!want || rec.shard != want->shard || rec.key != want->key
                || rec.ts != want->ts || rec.flags != want->flags
                || rec.mapEpoch != want->mapEpoch
                || rec.value != want->value) {
            ADD_FAILURE_AT(__FILE__, __LINE__)
                << "record " << visited << " differs from its append";
            ++mismatched;
        }
        ++visited;
    });
    EXPECT_EQ(visited, expect.size());
    EXPECT_EQ(mismatched, 0u);
    EXPECT_EQ(wal.stats().recordsRecovered, expect.size());
    EXPECT_EQ(wal.stats().tornBytesDiscarded, 0u);
}

// ---------------------------------------------------------------------
// Fsync policies and group commit
// ---------------------------------------------------------------------

TEST(WalPolicy, GroupCommitQueuesUntilFlush)
{
    TempDir dir("wal-group");
    const std::string path = dir.file("group.wal");
    WalConfig config;
    config.path = path;
    config.fsync = FsyncPolicy::Group;
    Wal wal(config);
    wal.append(1, Timestamp{1, 0}, 0, ValueRef("a"));
    wal.append(2, Timestamp{2, 0}, 0, ValueRef("b"));
    EXPECT_GT(wal.pendingBytes(), 0u);
    // Only the eagerly-written file header is on disk; no records yet.
    EXPECT_EQ(fileBytes(path).size(), Wal::kFileHeaderBytes);
    wal.flush();
    EXPECT_EQ(wal.pendingBytes(), 0u);
    EXPECT_EQ(scanAll(path).records.size(), 2u);
    EXPECT_EQ(wal.stats().flushes, 1u);
    EXPECT_EQ(wal.stats().fsyncs, 1u); // the whole window, one fsync
    wal.flush();                       // empty flush: no write, no fsync
    EXPECT_EQ(wal.stats().flushes, 1u);
    EXPECT_EQ(wal.stats().fsyncs, 1u);
}

TEST(WalPolicy, EverySyncsInsideAppend)
{
    TempDir dir("wal-every");
    WalConfig config;
    config.path = dir.file("every.wal");
    config.fsync = FsyncPolicy::Every;
    Wal wal(config);
    wal.append(1, Timestamp{1, 0}, 0, ValueRef("a"));
    EXPECT_EQ(wal.pendingBytes(), 0u); // written eagerly, nothing queued
    EXPECT_EQ(wal.stats().fsyncs, 1u);
    wal.append(2, Timestamp{2, 0}, 0, ValueRef("b"));
    EXPECT_EQ(wal.stats().fsyncs, 2u);
    EXPECT_EQ(scanAll(config.path).records.size(), 2u);
}

TEST(WalPolicy, NeverWritesButSkipsFsync)
{
    TempDir dir("wal-never");
    WalConfig config;
    config.path = dir.file("never.wal");
    config.fsync = FsyncPolicy::Never;
    Wal wal(config);
    wal.append(1, Timestamp{1, 0}, 0, ValueRef("a"));
    wal.flush();
    EXPECT_EQ(wal.stats().flushes, 1u);
    EXPECT_EQ(wal.stats().fsyncs, 0u);
    EXPECT_EQ(scanAll(config.path).records.size(), 1u);
}

TEST(WalPolicy, ChargeHookSeesAppendAndFsyncCosts)
{
    // The sim's ablation discipline: costs flow only through the hook,
    // and only when the config prices them.
    TempDir dir("wal-charge");
    WalConfig config;
    config.path = dir.file("charge.wal");
    config.fsync = FsyncPolicy::Group;
    config.appendPerByteNs = 2.0;
    config.fsyncNs = 1000;
    Wal wal(config);
    DurationNs charged = 0;
    wal.setChargeFn([&charged](DurationNs ns) { charged += ns; });
    wal.append(1, Timestamp{1, 0}, 0, ValueRef("abcd"));
    size_t record_bytes =
        Wal::kFrameHeaderBytes + Wal::kPayloadHeaderBytes + 4;
    EXPECT_EQ(charged, static_cast<DurationNs>(2.0 * record_bytes));
    wal.flush();
    EXPECT_EQ(charged,
              static_cast<DurationNs>(2.0 * record_bytes) + 1000);
}

TEST(WalPolicy, DestructorFlushesQueuedRecords)
{
    TempDir dir("wal-dtor");
    const std::string path = dir.file("dtor.wal");
    {
        WalConfig config;
        config.path = path;
        config.fsync = FsyncPolicy::Group;
        Wal wal(config);
        wal.append(1, Timestamp{1, 0}, 0, ValueRef("queued"));
        // No explicit flush: an orderly shutdown must not drop records.
    }
    EXPECT_EQ(scanAll(path).records.size(), 1u);
}

// ---------------------------------------------------------------------
// The zero tail: group commits into space zero-filled ahead
// ---------------------------------------------------------------------

/** A Group-policy log at @p path. */
WalConfig
groupConfig(const std::string &path)
{
    WalConfig config;
    config.path = path;
    config.fsync = FsyncPolicy::Group;
    return config;
}

TEST(WalZeroTail, CrashImageScansCleanAndReopensAtTheLastRecord)
{
    // A copy of the file taken while the log is open is what a crash
    // leaves: the records, then the zeros written ahead of them.
    TempDir dir("wal-zero-tail");
    const std::string path = dir.file("live.wal");
    const std::string image = dir.file("image.wal");
    const size_t clean = Wal::kFileHeaderBytes + 3 * kRecordOverhead
                         + strlen("one") + strlen("two") + strlen("three");
    {
        Wal wal(groupConfig(path));
        wal.append(1, Timestamp{1, 0}, 0, ValueRef("one"));
        wal.append(2, Timestamp{2, 0}, 0, ValueRef("two"));
        wal.flush();
        wal.append(3, Timestamp{3, 0}, 0, ValueRef("three"));
        wal.flush();
        writeBytes(image, fileBytes(path));
    }
    EXPECT_EQ(fileBytes(path).size(), clean); // closed: records only

    Wal::ScanResult scanned = Wal::scan(image);
    EXPECT_EQ(scanned.records, 3u);
    EXPECT_EQ(scanned.cleanBytes, clean);
    EXPECT_EQ(scanned.tornBytes, 0u);
    EXPECT_GE(scanned.zeroTailBytes, Wal::kZeroChunkBytes / 2);
    EXPECT_EQ(scanned.cleanBytes + scanned.zeroTailBytes,
              fileBytes(image).size());

    {
        std::vector<Recovered> recovered;
        Wal wal(groupConfig(image), collectInto(recovered));
        ASSERT_EQ(recovered.size(), 3u);
        EXPECT_EQ(recovered[2].value, "three");
        EXPECT_EQ(wal.stats().tornBytesDiscarded, 0u);
        // The zeros are kept: the reopened log has room already.
        EXPECT_EQ(fileBytes(image).size(),
                  scanned.cleanBytes + scanned.zeroTailBytes);
        wal.append(4, Timestamp{4, 0}, 0, ValueRef("four"));
        wal.flush();
        EXPECT_EQ(wal.stats().extensionSyncs, 0u);
    }
    // The new record starts right at the old clean end: no gap.
    Scanned after = scanAll(image);
    ASSERT_EQ(after.records.size(), 4u);
    EXPECT_EQ(after.records[3].value, "four");
    EXPECT_EQ(after.cleanBytes, clean + kRecordOverhead + strlen("four"));
    EXPECT_EQ(after.tornBytes, 0u);
    EXPECT_EQ(fileBytes(image).size(), after.cleanBytes);
}

TEST(WalZeroTail, RecordCutMidPayloadBeforeTheZerosIsTorn)
{
    // A crash inside a group's write can leave the head of a record
    // followed by the zeros it was meant to cover: that is a torn
    // record, not zeroed space, and the open truncates it.
    TempDir dir("wal-zero-torn");
    const std::string path = dir.file("live.wal");
    const std::string image = dir.file("image.wal");
    const size_t prefix2 = Wal::kFileHeaderBytes + 2 * kRecordOverhead
                           + strlen("first") + strlen("second");
    const std::string last(40, 'x');
    {
        Wal wal(groupConfig(path));
        wal.append(1, Timestamp{1, 0}, 0, ValueRef("first"));
        wal.append(2, Timestamp{2, 0}, 0, ValueRef("second"));
        wal.append(3, Timestamp{3, 0}, 0, ValueRef(last));
        wal.flush();
        std::vector<unsigned char> bytes = fileBytes(path);
        // Zero the final record from the middle of its payload on.
        std::fill(bytes.begin() + static_cast<ptrdiff_t>(
                                      prefix2 + kRecordOverhead + 20),
                  bytes.end(), 0);
        writeBytes(image, bytes);
    }
    const size_t image_size = fileBytes(image).size();
    ASSERT_GT(image_size, prefix2 + kRecordOverhead + last.size());

    Scanned torn = scanAll(image);
    ASSERT_EQ(torn.records.size(), 2u);
    EXPECT_EQ(torn.cleanBytes, prefix2);
    EXPECT_EQ(torn.tornBytes, image_size - prefix2);

    {
        std::vector<Recovered> recovered;
        Wal wal(groupConfig(image), collectInto(recovered));
        EXPECT_EQ(recovered.size(), 2u);
        EXPECT_EQ(wal.stats().tornBytesDiscarded, image_size - prefix2);
        EXPECT_EQ(fileBytes(image).size(), prefix2);
        wal.append(4, Timestamp{4, 0}, 0, ValueRef("after"));
    }
    Scanned after = scanAll(image);
    ASSERT_EQ(after.records.size(), 3u);
    EXPECT_EQ(after.records[2].value, "after");
    EXPECT_EQ(after.tornBytes, 0u);
}

TEST(WalZeroTail, ZeroFilledFileWithoutAHeaderOpensEmpty)
{
    // The zeros of a first extension can reach the disk while the page
    // holding the header does not: no magic, but nothing else either.
    // That is an empty log with zeroed space, not an unknown format.
    TempDir dir("wal-zero-only");
    const std::string path = dir.file("zeros.wal");
    writeBytes(path, std::vector<unsigned char>(4096, 0));
    Wal::ScanResult scanned = Wal::scan(path);
    EXPECT_EQ(scanned.records, 0u);
    EXPECT_EQ(scanned.cleanBytes, 0u);
    EXPECT_EQ(scanned.tornBytes, 0u);
    EXPECT_EQ(scanned.zeroTailBytes, 4096u);
    {
        Wal wal(groupConfig(path));
        wal.append(1, Timestamp{1, 0}, 0, ValueRef("first"));
    }
    Scanned after = scanAll(path);
    ASSERT_EQ(after.records.size(), 1u);
    EXPECT_EQ(after.records[0].value, "first");
    EXPECT_EQ(after.formatVersion, Wal::kFormatVersion);
}

TEST(WalZeroTail, ExtensionSyncIsNeitherChargedNorCounted)
{
    TempDir dir("wal-zero-sync");
    WalConfig config = groupConfig(dir.file("group.wal"));
    config.fsyncNs = 1000;
    DurationNs charged = 0;
    {
        Wal wal(config);
        wal.setChargeFn([&charged](DurationNs ns) { charged += ns; });
        wal.append(1, Timestamp{1, 0}, 0, ValueRef("a"));
        wal.flush(); // the first group extends the log, then syncs
        WalStats stats = wal.stats();
        EXPECT_EQ(stats.fsyncs, 1u);
        EXPECT_EQ(stats.extensionSyncs, 1u);
        EXPECT_EQ(charged, 1000);
        EXPECT_GE(fileBytes(config.path).size(), Wal::kZeroChunkBytes);
    }

    // Never syncs nothing, the extension included; Every extends
    // nothing: both append past the end of the file.
    for (FsyncPolicy policy : {FsyncPolicy::Never, FsyncPolicy::Every}) {
        WalConfig plain = config;
        plain.path = dir.file(toString(policy));
        plain.fsync = policy;
        Wal wal(plain);
        wal.append(1, Timestamp{1, 0}, 0, ValueRef("a"));
        wal.flush();
        EXPECT_EQ(wal.stats().fsyncs,
                  policy == FsyncPolicy::Every ? 1u : 0u)
            << toString(policy);
        EXPECT_EQ(wal.stats().extensionSyncs, 0u) << toString(policy);
        EXPECT_EQ(fileBytes(plain.path).size(),
                  Wal::kFileHeaderBytes + kRecordOverhead + 1)
            << toString(policy);
    }
}

TEST(WalZeroTail, MultiChunkLogReopenedTwiceReplaysInOrder)
{
    // Three lives of one log, each writing about 1.5 chunks: the first
    // closes cleanly, the second is cut off open (its zeros stay), and
    // the third replays both lives' records in append order.
    TempDir dir("wal-zero-chunks");
    const std::string path = dir.file("chunks.wal");
    const std::string image = dir.file("image.wal");
    std::vector<Recovered> expect;
    auto writeLife = [&expect](Wal &wal) {
        const size_t target = Wal::kZeroChunkBytes * 3 / 2;
        for (size_t bytes = 0; bytes < target;) {
            Recovered rec{0, expect.size(),
                          Timestamp{static_cast<uint32_t>(expect.size()), 0},
                          0, wal.mapEpoch(),
                          std::string(500 + expect.size() % 1000,
                                      static_cast<char>('a'
                                                        + expect.size() % 26))};
            wal.append(rec.key, rec.ts, rec.flags, ValueRef(rec.value));
            bytes += kRecordOverhead + rec.value.size();
            expect.push_back(std::move(rec));
            if (expect.size() % 16 == 0)
                wal.flush();
            // After a group, half a chunk stays zeroed ahead.
            if (expect.size() % 128 == 0) {
                ASSERT_GE(Wal::scan(wal.config().path).zeroTailBytes,
                          Wal::kZeroChunkBytes / 2);
            }
        }
        wal.flush();
    };
    auto sameAsExpected = [&expect](const std::vector<Recovered> &got) {
        ASSERT_EQ(got.size(), expect.size());
        for (size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].key, expect[i].key) << "record " << i;
            ASSERT_EQ(got[i].ts, expect[i].ts) << "record " << i;
            ASSERT_EQ(got[i].value, expect[i].value) << "record " << i;
        }
    };
    {
        Wal wal(groupConfig(path));
        writeLife(wal);
        EXPECT_GE(wal.stats().extensionSyncs, 2u);
    }
    {
        std::vector<Recovered> recovered;
        Wal wal(groupConfig(path), collectInto(recovered));
        sameAsExpected(recovered);
        writeLife(wal);
        writeBytes(image, fileBytes(path));
    }
    Wal::ScanResult cut = Wal::scan(image);
    EXPECT_EQ(cut.tornBytes, 0u);
    EXPECT_GT(cut.zeroTailBytes, 0u);
    std::vector<Recovered> recovered;
    Wal wal(groupConfig(image), collectInto(recovered));
    sameAsExpected(recovered);
    EXPECT_EQ(wal.stats().tornBytesDiscarded, 0u);
}

// ---------------------------------------------------------------------
// Recovery lock table
// ---------------------------------------------------------------------

TEST(KeyLockTableTest, SameKeySerializesAcrossThreads)
{
    KeyLockTable locks;
    int counter = 0;
    const int kIters = 20000;
    auto bump = [&] {
        for (int i = 0; i < kIters; ++i) {
            auto guard = locks.lock(42);
            ++counter; // unsynchronized but for the lock: TSan would bark
        }
    };
    std::thread a(bump), b(bump);
    a.join();
    b.join();
    EXPECT_EQ(counter, 2 * kIters);
}

TEST(KeyLockTableTest, DistinctStripesDoNotBlockEachOther)
{
    KeyLockTable locks;
    // Find two keys on different stripes (overwhelmingly the first try).
    auto first = locks.lock(1);
    for (Key key = 2; key < 300; ++key) {
        auto second = std::unique_lock<std::mutex>();
        auto probe = locks.lock(key);
        if (probe.mutex() != first.mutex()) {
            SUCCEED();
            return;
        }
    }
    FAIL() << "300 keys all hashed to one stripe";
}

// ---------------------------------------------------------------------
// Group commit on a writer thread
// ---------------------------------------------------------------------

TEST(WalWriter, CommitsHandedWindowsAsGroupsAndWakesTheOwner)
{
    // The owner's flush hands each window over; the writer commits, one
    // fsync per group, publishes durableSeq and calls the wake hook.
    // deliverDurable reaches the owner's hook once per advance.
    TempDir dir("wal-writer");
    WalConfig config;
    config.path = dir.file("writer.wal");
    config.fsync = FsyncPolicy::Group;
    std::atomic<int> wakes{0};
    std::vector<uint64_t> delivered;
    {
        Wal wal(config);
        wal.setDurableFn([&](uint64_t seq) { delivered.push_back(seq); });
        wal.startWriter([&wakes] { ++wakes; });
        EXPECT_EQ(wal.append(1, Timestamp{1, 0}, 0, ValueRef("a")), 1u);
        EXPECT_EQ(wal.append(2, Timestamp{2, 0}, 0,
                             ValueRef(std::string(300, 'b'))),
                  2u);
        wal.flush();
        EXPECT_EQ(wal.append(3, Timestamp{3, 0}, 0, ValueRef("c")), 3u);
        wal.flush();
        wal.waitDurable(3);
        EXPECT_EQ(wal.durableSeq(), 3u);
        // The wake follows the publication that released waitDurable.
        for (int i = 0; i < 1000 && wakes.load() == 0; ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        EXPECT_GE(wakes.load(), 1);
        WalStats stats = wal.stats();
        EXPECT_GE(stats.flushes, 1u);
        EXPECT_LE(stats.flushes, 2u);
        EXPECT_EQ(stats.fsyncs, stats.flushes);
        EXPECT_EQ(delivered, std::vector<uint64_t>{}); // the owner's call
        wal.deliverDurable(2);
        wal.deliverDurable(2);
        wal.deliverDurable(3);
        EXPECT_EQ(delivered, (std::vector<uint64_t>{2, 3}));
        EXPECT_EQ(wal.deliveredSeq(), 3u);
    }
    Scanned result = scanAll(config.path);
    ASSERT_EQ(result.records.size(), 3u);
    EXPECT_EQ(result.records[1].value, std::string(300, 'b'));
}

TEST(WalWriter, OwnerWaitsWhileTheWriterLagsPastItsBound)
{
    // A stalled fsync must slow the owner down, as an inline fsync
    // would, instead of letting handed windows pile up without bound.
    TempDir dir("wal-writer-lag");
    WalConfig config;
    config.path = dir.file("lag.wal");
    config.fsync = FsyncPolicy::Group;
    Wal wal(config);
    wal.startWriter([] {});
    const std::string value(4096, 'v');
    {
        test::FsyncHold hold;
        wal.append(1, Timestamp{1, 0}, 0, ValueRef(value));
        wal.flush(); // the writer takes it and stalls in fsync
        auto owner = std::async(std::launch::async, [&] {
            Key key = 2;
            size_t handed = 0;
            while (handed <= 2 * Wal::kMaxLagBytes) {
                wal.append(key, Timestamp{1, 0}, 0, ValueRef(value));
                wal.flush();
                handed += value.size();
                ++key;
            }
        });
        EXPECT_EQ(owner.wait_for(std::chrono::milliseconds(200)),
                  std::future_status::timeout)
            << "the owner handed 2 MiB past a stalled fsync";
        hold.release();
        owner.get();
    }
    wal.flush();
    wal.waitDurable(wal.appendedSeq());
    EXPECT_EQ(wal.durableSeq(), wal.appendedSeq());
}

} // namespace
} // namespace hermes::store
