/**
 * @file
 * Per-shard write-ahead log with crash-restart recovery.
 *
 * Hermes in the paper is in-memory; production isn't. Every value a
 * replica applies (coordinator issue, follower INV adoption, state-chunk
 * catch-up — and the analogous apply points of the baselines) is appended
 * here before the acknowledgement that makes it visible can leave the
 * node, following the replicate-and-persist-before-replying contract.
 *
 * On-disk format, frozen by the golden-bytes test (explicit
 * little-endian, same discipline as the wire format in
 * common/serialize.hh). The file opens with an 8-byte header:
 *
 *     offset  size  field
 *     0       u32   magic "HWAL" (0x4C415748 when loaded LE)
 *     4       u32   format version (kFormatVersion)
 *
 * followed by records:
 *
 *     offset  size  field
 *     0       u32   payload length (= 29 + value length)
 *     4       u32   CRC32 (IEEE 802.3, reflected) of the payload bytes
 *     8       u32   shard id                   ─┐
 *     12      u64   key                         │
 *     20      u32   timestamp.version           │
 *     24      u32   timestamp.cid               │ payload
 *     28      u8    flags (bit 0: RMW)          │
 *     29      u32   slot-map epoch at append    │
 *     33      u32   value length                │
 *     37      ...   value bytes                ─┘
 *
 * Versioning: the record payload grew from 25 to 29 bytes when the
 * slot-map epoch stamp landed (format version 2) — a version-1 scanner
 * would misparse every v2 record at the value_len check and discard the
 * whole log as a torn tail. The header makes that impossible: a log
 * written by a DIFFERENT format version is refused loudly (panic) rather
 * than silently truncated, and a headerless v1 log (the only released
 * earlier format) is recognized by its missing magic, decoded with the
 * v1 layout, and rewritten in the current format at open — pre-upgrade
 * durable data survives the upgrade instead of vanishing on restart.
 * The rewrite is crash-safe: records stream into `<path>.upgrade`,
 * which is fsync'd and then renamed over the log (directory fsync'd
 * too), so a crash at any point leaves either the intact v1 log or the
 * complete v2 one. A leftover `.upgrade` file from a crashed upgrade is
 * deleted at open and the upgrade redone from the v1 log.
 *
 * The slot-map epoch stamp is what makes recovery elastic-sharding
 * aware: a record appended before a migration cutover may describe a
 * key whose slot has since moved to another shard, and replaying it
 * here would resurrect ownership the map took away. Recovery filters
 * records against the *current* map (see ReplicaHandle::openAndReplayWal);
 * the epoch tag records which generation wrote each record.
 *
 * Appends copy each record into one contiguous queue (a queued record
 * never pins the receive buffer its value arrived in, however long the
 * writer holds it), and each append returns the record's log sequence
 * number (1, 2, 3 …). flush() closes a group-commit window. By default it
 * writes and fsyncs the window itself (the sim charges fsyncNs for it);
 * after startWriter() it hands the window to one writer thread and
 * returns, unless the writer lags more than kMaxLagBytes behind (a
 * stalled disk slows the loop as an inline fsync would). The writer
 * commits every window handed to it since its last fsync as one group
 * and publishes a cumulative durableSeq() ("durable up to here"). The
 * TCP transport holds each outbound frame until durableSeq() covers the
 * records the frame depends on (common/durable_log.hh), and
 * deliverDurable() tells the log's owner — the Hermes coordinator
 * counts its own durable record as one of a commit's ACKs. The fsync
 * policy spans the classic spectrum:
 *
 *  - Never: write() at commit, no fsync — the OS decides when bytes hit
 *    disk. Survives process crashes, not power loss.
 *  - Group: one fsync per group commit (default) — a record is durable
 *    before any frame that depends on it leaves the node.
 *  - Every: write+fsync inside append() itself, before the protocol
 *    message that announces the write is even staged.
 *
 * Every sync of records is an fdatasync, for the reason below.
 *
 * The zero tail. Records are written at a write position, and under
 * Group into space the log zero-filled ahead of itself. Before a group
 * would cross the zeroed frontier, whoever writes the group (the owner
 * without a writer thread, else the writer) writes zeros up to the next
 * kZeroChunkBytes boundary from one small static buffer and makes them
 * durable with their own fdatasync; after each committed group it tops
 * the headroom up to at least half a chunk, so a group rarely waits for
 * an extension. A group then overwrites blocks that are already
 * allocated and written, and the file size does not move, so its
 * fdatasync flushes only data: no group commits the filesystem journal
 * for a block allocation or a new size, as an appending fsync does.
 * fallocate is not enough: on ext4 a write into an unwritten extent
 * converts the extent, which is again a journalled metadata change.
 * The extension's sync is neither charged to the cost model nor counted
 * in WalStats::fsyncs (it has WalStats::extensionSyncs), and the
 * before-fsync test hook does not see it. Never has no sync to make
 * cheaper and Every no writer to hide an extension behind, so both
 * append past the end of the file instead (Every with an fdatasync per
 * record); a zero tail a Group log left is still used first. The file
 * layout is unchanged: a crash image is the records followed by zeros,
 * and ~Wal truncates the file to its write position, so a closed log
 * holds exactly its records.
 *
 * Recovery: scan() streams the log from the start in one pass and stops
 * at the first record that is truncated, length-corrupt or CRC-failing —
 * the torn tail a crash mid-write leaves behind is discarded, never
 * replayed and never fatal. An all-zero tail after the last good record
 * is zeroed space, not a torn write: the constructor keeps it and
 * appends at the clean end (a record cut short before the zeros is
 * still torn, and truncated). Each surviving record goes to a visitor
 * as a view into the read buffer, so recovery holds one read buffer
 * (kScanBufferBytes, grown only to fit one larger record) plus one
 * record, never the log: the Hermes handle replays each view straight
 * into the KVS (as Invalid: a logged write was not necessarily
 * committed, so it must heal through the protocol's replay/state-
 * transfer path before serving reads).
 */

#ifndef HERMES_STORE_WAL_HH
#define HERMES_STORE_WAL_HH

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/durable_log.hh"
#include "common/random.hh"
#include "common/serialize.hh"
#include "common/timestamp.hh"
#include "common/types.hh"
#include "common/value_ref.hh"

namespace hermes::store
{

/** CRC32 (IEEE 802.3, reflected 0xEDB88320) of @p len bytes at @p data. */
uint32_t crc32(const void *data, size_t len);

/** Incremental CRC32: fold @p len more bytes into a running state.
 *  Start from crc32Init(), finish with crc32Final(). */
uint32_t crc32Init();
uint32_t crc32Update(uint32_t state, const void *data, size_t len);
uint32_t crc32Final(uint32_t state);

/** When (not whether) appended records reach the platters. */
enum class FsyncPolicy : uint8_t
{
    Never, ///< write at commit, never fsync
    Group, ///< one fsync per group commit
    Every, ///< write + fsync inside every append
};

const char *toString(FsyncPolicy policy);

struct WalConfig
{
    /** Log file path. Construction requires a non-empty path. */
    std::string path;
    FsyncPolicy fsync = FsyncPolicy::Group;
    /** Shard id stamped into every record (recovery sanity filter). */
    uint32_t shard = 0;
    /**
     * Cost-model charges, forwarded through the charge hook when one is
     * set (the sim wires these to Env::chargeCpu; the TCP transport
     * leaves them unset and pays the real syscalls instead). Zero =
     * uncharged, so default sim histories stay byte-identical.
     */
    double appendPerByteNs = 0.0;
    DurationNs fsyncNs = 0;
};

struct WalStats
{
    uint64_t appends = 0;
    uint64_t bytesAppended = 0; ///< wire bytes queued (header + payload)
    uint64_t flushes = 0;       ///< groups written (one writev run each)
    uint64_t fsyncs = 0;        ///< one per group under FsyncPolicy::Group
    /** fdatasyncs of zero-filled extensions (Group only): not in
     *  fsyncs, never charged. */
    uint64_t extensionSyncs = 0;
    uint64_t recordsRecovered = 0;
    uint64_t tornBytesDiscarded = 0;
};

/**
 * One decoded log record, as the recovery scan hands it to a visitor.
 * A view: @c value points into the scan's read buffer and is valid only
 * for the duration of the visitor call — copy it to keep it.
 */
struct WalRecordView
{
    uint32_t shard = 0;
    Key key = 0;
    Timestamp ts{};
    uint8_t flags = 0;
    /** Slot-map epoch the replica served under when this was appended. */
    uint32_t mapEpoch = 0;
    std::string_view value;
};

/** Called once per intact record, in append order. */
using WalVisitor = std::function<void(const WalRecordView &)>;

/**
 * Striped per-key mutexes guarding the recovery-replay-vs-live-write
 * race (the zetascale key-lock pattern): while a restarted replica is
 * replaying its log, an incoming INV for the same key must not interleave
 * with the replay's read-compare-apply. The store takes these around
 * withKey() only while a recovery is in progress (a single pointer check
 * otherwise), so the steady-state write path pays nothing.
 */
class KeyLockTable
{
  public:
    std::unique_lock<std::mutex>
    lock(Key key)
    {
        return std::unique_lock<std::mutex>(
            stripes_[mix64(key) & (kStripes - 1)]);
    }

  private:
    static constexpr size_t kStripes = 256;
    std::array<std::mutex, kStripes> stripes_;
};

/**
 * Test seam until a file-operations seam exists: when set, every Wal
 * calls @p hook on the thread about to sync a group (or an Every
 * append), just before it does (tests hold writers inside their fsync
 * with it); zero-fill extensions do not call it. nullptr clears it.
 */
void setBeforeFsyncHook(void (*hook)());

/**
 * The per-replica write-ahead log. Its owner (the replica's event-loop
 * or job context, exactly like the KVS write path it shadows) makes
 * every call except durableSeq(), stats() and waitDurable(), which any
 * thread may make. After startWriter() one writer thread owns the file
 * writes; the owner's first flush() that hands it a window starts it.
 */
class Wal : public DurableLog
{
  public:
    /** File-header magic, "HWAL" loaded little-endian. */
    static constexpr uint32_t kFileMagic = 0x4C415748u;
    /** On-disk format version this build writes (and reads natively). */
    static constexpr uint32_t kFormatVersion = 2;
    /** File header size: magic word + format-version word. */
    static constexpr size_t kFileHeaderBytes = 8;
    /** Fixed payload bytes before the value (shard..valueLen fields). */
    static constexpr size_t kPayloadHeaderBytes = 29;
    /** Record framing overhead (length prefix + CRC word). */
    static constexpr size_t kFrameHeaderBytes = 8;

    /**
     * Open (creating if absent) the log at config.path, stream every
     * surviving record to @p visit (if set) in one pass over the file,
     * and truncate any torn tail so new appends start from the clean
     * prefix (an all-zero tail is kept as zeroed space). A headerless
     * v1 log is upgraded to the current format on the way (see the file
     * comment).
     */
    explicit Wal(WalConfig config, const WalVisitor &visit = {});
    ~Wal();

    Wal(const Wal &) = delete;
    Wal &operator=(const Wal &) = delete;

    /**
     * Queue one record; under FsyncPolicy::Every, also write+fsync it.
     * @return its log sequence number.
     */
    uint64_t append(Key key, Timestamp ts, uint8_t flags,
                    const ValueRef &value);

    // ---- DurableLog ----
    /**
     * Close a group-commit window (the Env's poll-boundary flush).
     * Without a writer thread, write every queued record in one
     * gathered writev, fsync per policy, and deliver the new
     * durableSeq() (delivery may append more records: they commit in
     * the same call). With one, hand the window to the writer.
     */
    void flush() override;
    uint64_t appendedSeq() const override { return appended_; }
    uint64_t
    durableSeq() const override
    {
        return durable_.load(std::memory_order_acquire);
    }
    /** Run the durable hook once per advance of @p seq. */
    void deliverDurable(uint64_t seq) override;
    void startWriter(std::function<void()> wake) override;

    /** Highest sequence passed to the durable hook so far. */
    uint64_t deliveredSeq() const { return delivered_; }

    /** Called with the new sequence each time deliverDurable advances. */
    void setDurableFn(std::function<void(uint64_t)> fn);

    void waitDurable(uint64_t seq) override;

    /** Cost-model charge hook (sim: Env::chargeCpu). */
    void setChargeFn(std::function<void(DurationNs)> fn);

    /**
     * Slot-map epoch stamped into subsequent records. Updated from the
     * replica's own loop/job context at migration cutover, same
     * single-writer discipline as append().
     */
    void setMapEpoch(uint32_t epoch) { mapEpoch_ = epoch; }
    uint32_t mapEpoch() const { return mapEpoch_; }

    /** A snapshot of the counters; safe while the writer runs. */
    WalStats stats() const;
    const WalConfig &config() const { return config_; }

    /** Bytes queued and not yet handed over or written. */
    size_t pendingBytes() const { return queue_.size(); }

    struct ScanResult
    {
        size_t records = 0;    ///< intact records visited
        size_t cleanBytes = 0; ///< prefix ending at the last good record
        size_t tornBytes = 0;  ///< discarded tail (0 for a clean log)
        /** All-zero tail after cleanBytes: zeroed space the log had not
         *  written yet, kept (tornBytes is 0 then). */
        size_t zeroTailBytes = 0;
        /** Format the log was written in: kFormatVersion for a current
         *  (or missing/empty) log, 1 for a headerless legacy log whose
         *  records were decoded with the v1 layout. The constructor
         *  rewrites a version-1 log in the current format. */
        uint32_t formatVersion = kFormatVersion;
    };

    /**
     * Stream every intact record of the log at @p path to @p visit (if
     * set), stopping at the first truncated, length-corrupt or
     * CRC-failing one. The file is read once, through a fixed
     * kScanBufferBytes buffer grown only to fit a single larger record,
     * so memory stays bounded by the largest record, not the log size.
     * A missing file
     * scans as empty — a replica's first boot has no log. Torn tails
     * (including a file cut inside the header) are data, not bugs: they
     * are discarded, never thrown on. A file whose header announces a
     * DIFFERENT format version, or that matches no known format at all,
     * is an operator error and panics loudly — silently treating a
     * format mismatch as a torn tail would discard the entire log.
     */
    static ScanResult scan(const std::string &path,
                           const WalVisitor &visit = {});

    /** Initial size of the scan's read buffer. */
    static constexpr size_t kScanBufferBytes = 64 * 1024;

    /** flush() waits while the writer lags further behind than this. */
    static constexpr size_t kMaxLagBytes = 1 << 20;

    /** Under Group the log zero-fills ahead of its write position up
     *  to multiples of this. Small: a group that must wait for an
     *  extension waits for about one chunk. */
    static constexpr size_t kZeroChunkBytes = 256 * 1024;

  private:
    /** scan() into @p out, whose formatVersion is final before the
     *  first record reaches @p visit (the v1 upgrade keys off it). */
    static void scanInto(const std::string &path, const WalVisitor &visit,
                         ScanResult &out);
    /** Frame one record (header, CRC, value bytes) into the
     *  group-commit queue. */
    void encodeRecord(uint32_t shard, Key key, Timestamp ts, uint8_t flags,
                      uint32_t map_epoch, std::string_view value);
    void writeFileHeader();
    /** Write @p count queued windows in order at the write position,
     *  zero-filling ahead first if they would cross the frontier, then
     *  ++flushes. */
    void writeWindows(const std::vector<uint8_t> *windows, size_t count);
    /** writeWindows the owner's queue and clear it. */
    void writeQueued();
    /** The owner's commit: writeQueued, sync per policy, publish. */
    void commitQueued();
    /** Zero-fill from the frontier to the kZeroChunkBytes boundary at
     *  or past @p end, and fdatasync it. */
    void extendZeroed(uint64_t end);
    /** After a committed group (Group only): keep half a chunk zeroed
     *  ahead. */
    void keepZeroedAhead();
    void fsyncNow();
    /** Finish a v1 upgrade: make the rewritten copy at @p upgrade_path
     *  durable and atomically replace the log with it. */
    void commitUpgrade(const std::string &upgrade_path);
    /** Writer thread: commit every handed window as one group. */
    void writerLoop();

    WalConfig config_;
    uint32_t mapEpoch_ = 1;
    int fd_ = -1;
    // Whoever writes the file (see the file comment) owns these two.
    uint64_t writePos_ = 0; ///< where the next record goes
    uint64_t fileEnd_ = 0;  ///< file size; zeros from writePos_ to here
    std::vector<uint8_t> queue_; ///< group-commit queue (encoded records)
    std::function<void(DurationNs)> chargeFn_;
    std::function<void(uint64_t)> durableFn_;
    uint64_t appended_ = 0;  ///< owner thread
    uint64_t delivered_ = 0; ///< owner thread
    std::atomic<uint64_t> durable_{0};

    // Counters the writer and the owner bump; stats() snapshots them.
    std::atomic<uint64_t> appends_{0};
    std::atomic<uint64_t> bytesAppended_{0};
    std::atomic<uint64_t> flushes_{0};
    std::atomic<uint64_t> fsyncs_{0};
    std::atomic<uint64_t> extensionSyncs_{0};
    uint64_t recordsRecovered_ = 0;
    uint64_t tornBytesDiscarded_ = 0;

    // Writer thread (startWriter): flush() moves queue_ into handed_.
    std::thread writer_;
    std::function<void()> wake_; ///< set: commit on the writer thread
    std::mutex writerMutex_;
    std::condition_variable writerCv_;  ///< windows handed, or stop
    std::condition_variable durableCv_; ///< durable_ advanced
    std::vector<std::vector<uint8_t>> handed_; ///< guarded by writerMutex_
    /** Written windows' buffers, for flush() to reuse (guarded). */
    std::vector<std::vector<uint8_t>> spare_;
    static constexpr size_t kSpareWindows = 8;
    uint64_t handedSeq_ = 0;            ///< guarded by writerMutex_
    /** Bytes handed and not yet durable (guarded by writerMutex_). */
    size_t lagBytes_ = 0;
    bool writerStop_ = false;           ///< guarded by writerMutex_
};

} // namespace hermes::store

#endif // HERMES_STORE_WAL_HH
