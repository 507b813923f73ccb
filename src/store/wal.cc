#include "store/wal.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>

#include "common/logging.hh"

namespace hermes::store
{

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320)
// ---------------------------------------------------------------------

namespace
{

/**
 * Slicing-by-8 tables: entries[0] is the classic byte-at-a-time table,
 * and entries[k][b] is the CRC of byte b followed by k zero bytes, so
 * eight table lookups fold eight input bytes at once.
 */
struct Crc32Table
{
    uint32_t entries[8][256];

    Crc32Table()
    {
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int bit = 0; bit < 8; ++bit)
                c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
            entries[0][i] = c;
        }
        for (int k = 1; k < 8; ++k) {
            for (uint32_t i = 0; i < 256; ++i) {
                uint32_t prev = entries[k - 1][i];
                entries[k][i] = (prev >> 8) ^ entries[0][prev & 0xFF];
            }
        }
    }
};

const Crc32Table &
crcTable()
{
    static const Crc32Table table;
    return table;
}

/** See setBeforeFsyncHook. */
std::atomic<void (*)()> g_before_fsync{nullptr};

/** The one source of the zeros the log writes ahead of itself. */
const std::array<uint8_t, 64 * 1024> kZeros{};

/** pwritev all of @p iov to @p fd at file offset @p offset. */
void
writeAt(int fd, const std::string &path, std::vector<iovec> &iov,
        uint64_t offset)
{
    // pwritev caps the vector length (IOV_MAX, commonly 1024); chunk and
    // re-slice partial writes so every byte lands exactly once.
    constexpr size_t kMaxIovPerCall = 512;
    size_t idx = 0;
    while (idx < iov.size()) {
        size_t n_iov = std::min(iov.size() - idx, kMaxIovPerCall);
        ssize_t n = ::pwritev(fd, iov.data() + idx,
                              static_cast<int>(n_iov),
                              static_cast<off_t>(offset));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            panic("wal: pwritev(%s) failed: %s", path.c_str(),
                  strerror(errno));
        }
        auto written = static_cast<size_t>(n);
        offset += written;
        while (written > 0 && idx < iov.size()) {
            if (written >= iov[idx].iov_len) {
                written -= iov[idx].iov_len;
                ++idx;
            } else {
                iov[idx].iov_base =
                    static_cast<uint8_t *>(iov[idx].iov_base) + written;
                iov[idx].iov_len -= written;
                written = 0;
            }
        }
    }
}

} // namespace

void
setBeforeFsyncHook(void (*hook)())
{
    g_before_fsync.store(hook);
}

uint32_t
crc32Init()
{
    return 0xFFFFFFFFu;
}

uint32_t
crc32Update(uint32_t state, const void *data, size_t len)
{
    const auto *bytes = static_cast<const uint8_t *>(data);
    const auto &t = crcTable().entries;
    for (; len >= 8; bytes += 8, len -= 8) {
        uint32_t lo = leLoad32(bytes) ^ state;
        uint32_t hi = leLoad32(bytes + 4);
        state = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF]
                ^ t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24]
                ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF]
                ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    }
    for (; len > 0; ++bytes, --len)
        state = t[0][(state ^ *bytes) & 0xFF] ^ (state >> 8);
    return state;
}

uint32_t
crc32Final(uint32_t state)
{
    return state ^ 0xFFFFFFFFu;
}

uint32_t
crc32(const void *data, size_t len)
{
    return crc32Final(crc32Update(crc32Init(), data, len));
}

const char *
toString(FsyncPolicy policy)
{
    switch (policy) {
      case FsyncPolicy::Never: return "never";
      case FsyncPolicy::Group: return "group";
      case FsyncPolicy::Every: return "every";
    }
    return "?";
}

// ---------------------------------------------------------------------
// Wal
// ---------------------------------------------------------------------

Wal::Wal(WalConfig config, const WalVisitor &visit)
    : config_(std::move(config))
{
    hermes_assert(!config_.path.empty());
    // A crash mid-upgrade leaves the v1 log untouched beside a partial
    // rewrite: drop the rewrite and redo the upgrade from the log.
    const std::string upgrade_path = config_.path + ".upgrade";
    if (::unlink(upgrade_path.c_str()) != 0 && errno != ENOENT)
        panic("wal: unlink(%s) failed: %s", upgrade_path.c_str(),
              strerror(errno));

    ScanResult scanned;
    scanInto(config_.path, [&](const WalRecordView &rec) {
        if (visit)
            visit(rec);
        if (scanned.formatVersion == kFormatVersion)
            return;
        // Legacy headerless log: stream its records into a current-
        // format copy, so the file never mixes record layouts and the
        // upgrade never holds the log in memory.
        if (fd_ < 0) {
            fd_ = ::open(upgrade_path.c_str(),
                         O_CREAT | O_EXCL | O_RDWR, 0644);
            if (fd_ < 0)
                panic("wal: open(%s) failed: %s", upgrade_path.c_str(),
                      strerror(errno));
            writeFileHeader();
        }
        encodeRecord(rec.shard, rec.key, rec.ts, rec.flags, rec.mapEpoch,
                     rec.value);
        if (queue_.size() >= kScanBufferBytes)
            writeQueued();
    }, scanned);
    recordsRecovered_ = scanned.records;
    tornBytesDiscarded_ = scanned.tornBytes;

    if (scanned.formatVersion < kFormatVersion) {
        commitUpgrade(upgrade_path);
        return;
    }
    fd_ = ::open(config_.path.c_str(), O_CREAT | O_RDWR, 0644);
    if (fd_ < 0)
        panic("wal: open(%s) failed: %s", config_.path.c_str(),
              strerror(errno));
    if (scanned.tornBytes > 0) {
        // Drop the torn tail so the next append starts a well-formed
        // record at the clean prefix instead of gluing onto garbage.
        if (::ftruncate(fd_, static_cast<off_t>(scanned.cleanBytes)) != 0)
            panic("wal: ftruncate(%s) failed: %s", config_.path.c_str(),
                  strerror(errno));
    }
    // Appends start at the clean end; a zero tail stays zeroed space.
    writePos_ = scanned.cleanBytes;
    fileEnd_ = scanned.cleanBytes + scanned.zeroTailBytes;
    // A brand-new log — or one torn inside the header itself, just
    // truncated to nothing — starts with the format header.
    if (scanned.cleanBytes == 0)
        writeFileHeader();
}

void
Wal::commitUpgrade(const std::string &upgrade_path)
{
    // The rewritten records must be durable before the rename makes
    // them the log: the upgrade must not weaken their durability.
    writeQueued();
    fsyncNow();
    if (::rename(upgrade_path.c_str(), config_.path.c_str()) != 0)
        panic("wal: rename(%s, %s) failed: %s", upgrade_path.c_str(),
              config_.path.c_str(), strerror(errno));
    // fd_ now names the log itself. Persist the rename: until the
    // directory entry is durable, a power loss could bring back the v1
    // log — harmless, it upgrades again — but never lose both.
    size_t slash = config_.path.rfind('/');
    std::string dir = slash == std::string::npos
                          ? std::string(".")
                          : config_.path.substr(0, slash + 1);
    int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dir_fd < 0)
        panic("wal: open(%s) failed: %s", dir.c_str(), strerror(errno));
    if (::fsync(dir_fd) != 0)
        panic("wal: fsync(%s) failed: %s", dir.c_str(), strerror(errno));
    ::close(dir_fd);
}

void
Wal::writeFileHeader()
{
    uint8_t header[kFileHeaderBytes];
    leStore32(header, kFileMagic);
    leStore32(header + 4, kFormatVersion);
    std::vector<iovec> iov{iovec{header, sizeof(header)}};
    writeAt(fd_, config_.path, iov, 0);
    writePos_ = kFileHeaderBytes;
    fileEnd_ = std::max<uint64_t>(fileEnd_, kFileHeaderBytes);
}

Wal::~Wal()
{
    // Whoever the durable hook reached is being torn down with us.
    durableFn_ = nullptr;
    if (fd_ < 0)
        return;
    // Best-effort final flush: a clean shutdown should not owe the next
    // incarnation a state transfer for already-queued records.
    flush();
    if (writer_.joinable()) {
        {
            std::lock_guard<std::mutex> lock(writerMutex_);
            writerStop_ = true;
        }
        writerCv_.notify_one();
        writer_.join(); // after it committed every handed window
    }
    // A closed log holds exactly its records. Should this fail, the
    // zero tail left behind is what recovery expects after a crash.
    if (::ftruncate(fd_, static_cast<off_t>(writePos_)) != 0)
        LOG_WARN("wal: ftruncate(%s) failed: %s", config_.path.c_str(),
                 strerror(errno));
    ::close(fd_);
}

void
Wal::setChargeFn(std::function<void(DurationNs)> fn)
{
    chargeFn_ = std::move(fn);
}

void
Wal::setDurableFn(std::function<void(uint64_t)> fn)
{
    durableFn_ = std::move(fn);
}

WalStats
Wal::stats() const
{
    WalStats out;
    out.appends = appends_.load(std::memory_order_relaxed);
    out.bytesAppended = bytesAppended_.load(std::memory_order_relaxed);
    out.flushes = flushes_.load(std::memory_order_relaxed);
    out.fsyncs = fsyncs_.load(std::memory_order_relaxed);
    out.extensionSyncs = extensionSyncs_.load(std::memory_order_relaxed);
    out.recordsRecovered = recordsRecovered_;
    out.tornBytesDiscarded = tornBytesDiscarded_;
    return out;
}

void
Wal::encodeRecord(uint32_t shard, Key key, Timestamp ts, uint8_t flags,
                  uint32_t map_epoch, std::string_view value)
{
    uint8_t payload_header[kPayloadHeaderBytes];
    leStore32(payload_header, shard);
    leStore64(payload_header + 4, key);
    leStore32(payload_header + 12, ts.version);
    leStore32(payload_header + 16, ts.cid);
    payload_header[20] = flags;
    leStore32(payload_header + 21, map_epoch);
    leStore32(payload_header + 25, static_cast<uint32_t>(value.size()));

    uint32_t crc = crc32Update(crc32Init(), payload_header,
                               sizeof(payload_header));
    crc = crc32Final(crc32Update(crc, value.data(), value.size()));

    size_t base = queue_.size();
    queue_.resize(base + kFrameHeaderBytes + sizeof(payload_header));
    leStore32(queue_.data() + base,
              static_cast<uint32_t>(kPayloadHeaderBytes + value.size()));
    leStore32(queue_.data() + base + 4, crc);
    std::memcpy(queue_.data() + base + kFrameHeaderBytes,
                payload_header, sizeof(payload_header));
    queue_.insert(queue_.end(), value.begin(), value.end());
}

uint64_t
Wal::append(Key key, Timestamp ts, uint8_t flags, const ValueRef &value)
{
    hermes_assert(fd_ >= 0);
    encodeRecord(config_.shard, key, ts, flags, mapEpoch_, value.view());

    size_t record_bytes =
        kFrameHeaderBytes + kPayloadHeaderBytes + value.size();
    appends_.fetch_add(1, std::memory_order_relaxed);
    bytesAppended_.fetch_add(record_bytes, std::memory_order_relaxed);
    if (chargeFn_ && config_.appendPerByteNs > 0)
        chargeFn_(static_cast<DurationNs>(config_.appendPerByteNs
                                          * record_bytes));

    uint64_t seq = ++appended_;
    // Strict durability: the record is on disk before the append even
    // returns to the protocol transition that produced it.
    if (config_.fsync == FsyncPolicy::Every)
        commitQueued();
    return seq;
}

void
Wal::flush()
{
    if (wake_) {
        if (queue_.empty())
            return;
        // Started by the owner's first hand-over, the writer inherits
        // the owner's CPU placement, not that of whichever thread built
        // the log (a deployment that pins its loops after start() keeps
        // each writer beside its loop instead of on the builder's CPU).
        if (!writer_.joinable())
            writer_ = std::thread([this] { writerLoop(); });
        std::unique_lock<std::mutex> lock(writerMutex_);
        lagBytes_ += queue_.size();
        handed_.push_back(std::move(queue_));
        handedSeq_ = appended_;
        queue_ = {};
        if (!spare_.empty()) {
            queue_ = std::move(spare_.back());
            spare_.pop_back();
        }
        writerCv_.notify_one();
        // A disk that stalls slows the owner down, as an inline fsync
        // would: what the writer lags behind stays bounded.
        durableCv_.wait(lock, [this] { return lagBytes_ <= kMaxLagBytes; });
        return;
    }
    for (;;) {
        if (!queue_.empty())
            commitQueued();
        if (durableSeq() <= delivered_)
            return; // every durable record delivered
        deliverDurable(durableSeq());
    }
}

void
Wal::deliverDurable(uint64_t seq)
{
    if (seq <= delivered_)
        return;
    delivered_ = seq;
    if (durableFn_)
        durableFn_(seq);
}

void
Wal::startWriter(std::function<void()> wake)
{
    hermes_assert(fd_ >= 0 && !wake_ && wake);
    wake_ = std::move(wake);
}

void
Wal::writerLoop()
{
    std::vector<std::vector<uint8_t>> group;
    for (;;) {
        uint64_t up_to;
        size_t group_bytes;
        {
            std::unique_lock<std::mutex> lock(writerMutex_);
            writerCv_.wait(lock,
                           [this] { return !handed_.empty() || writerStop_; });
            if (handed_.empty())
                return; // stopping, and every handed window is committed
            group.swap(handed_);
            up_to = handedSeq_;
            group_bytes = lagBytes_;
        }
        // Windows handed while the last fsync ran commit together: the
        // group grows with load instead of shrinking.
        writeWindows(group.data(), group.size());
        if (config_.fsync != FsyncPolicy::Never)
            fsyncNow();
        {
            std::lock_guard<std::mutex> lock(writerMutex_);
            durable_.store(up_to, std::memory_order_release);
            lagBytes_ -= group_bytes;
            // Keep the buffers for the owner's next windows.
            for (std::vector<uint8_t> &window : group) {
                if (spare_.size() < kSpareWindows) {
                    window.clear();
                    spare_.push_back(std::move(window));
                }
            }
        }
        group.clear();
        durableCv_.notify_all();
        wake_();
        // Extend after the group is published, not on its path: the
        // windows handed meanwhile commit right behind the extension.
        keepZeroedAhead();
    }
}

void
Wal::waitDurable(uint64_t seq)
{
    std::unique_lock<std::mutex> lock(writerMutex_);
    durableCv_.wait(lock, [this, seq] { return durableSeq() >= seq; });
}

void
Wal::writeQueued()
{
    if (queue_.empty())
        return;
    writeWindows(&queue_, 1);
    queue_.clear();
}

void
Wal::commitQueued()
{
    writeQueued();
    if (config_.fsync != FsyncPolicy::Never)
        fsyncNow();
    durable_.store(appended_, std::memory_order_release);
    keepZeroedAhead();
}

void
Wal::writeWindows(const std::vector<uint8_t> *windows, size_t count)
{
    std::vector<iovec> iov;
    iov.reserve(count);
    uint64_t bytes = 0;
    for (size_t w = 0; w < count; ++w) {
        iov.push_back(iovec{const_cast<uint8_t *>(windows[w].data()),
                            windows[w].size()});
        bytes += windows[w].size();
    }
    // Rare once the log runs: keepZeroedAhead leaves half a chunk.
    if (config_.fsync == FsyncPolicy::Group && writePos_ + bytes > fileEnd_)
        extendZeroed(writePos_ + bytes);
    writeAt(fd_, config_.path, iov, writePos_);
    writePos_ += bytes;
    fileEnd_ = std::max(fileEnd_, writePos_); // Every and Never append
    flushes_.fetch_add(1, std::memory_order_relaxed);
}

void
Wal::extendZeroed(uint64_t end)
{
    end = (end + kZeroChunkBytes - 1) / kZeroChunkBytes * kZeroChunkBytes;
    std::vector<iovec> iov;
    for (uint64_t off = fileEnd_; off < end; off += kZeros.size()) {
        iov.push_back(iovec{const_cast<uint8_t *>(kZeros.data()),
                            std::min<uint64_t>(kZeros.size(), end - off)});
    }
    writeAt(fd_, config_.path, iov, fileEnd_);
    if (::fdatasync(fd_) != 0)
        panic("wal: fdatasync(%s) failed: %s", config_.path.c_str(),
              strerror(errno));
    extensionSyncs_.fetch_add(1, std::memory_order_relaxed);
    fileEnd_ = end;
}

void
Wal::keepZeroedAhead()
{
    if (config_.fsync == FsyncPolicy::Group
            && fileEnd_ - writePos_ < kZeroChunkBytes / 2)
        extendZeroed(writePos_ + kZeroChunkBytes);
}

void
Wal::fsyncNow()
{
    if (void (*hook)() = g_before_fsync.load())
        hook();
    // Data only: the zeroed space a group overwrites was allocated, and
    // the file size made durable, by its extension's own sync.
    if (::fdatasync(fd_) != 0)
        panic("wal: fdatasync(%s) failed: %s", config_.path.c_str(),
              strerror(errno));
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
    if (chargeFn_ && config_.fsyncNs > 0)
        chargeFn_(config_.fsyncNs);
}

namespace
{

/**
 * Front-to-back reader over a log file through one reusable buffer.
 * window() hands out contiguous byte ranges by absolute file offset;
 * each call may discard everything before its offset, so at most one
 * record (or kScanBufferBytes, whichever is larger) is ever resident.
 */
class LogReader
{
  public:
    explicit LogReader(int fd) : fd_(fd), buf_(Wal::kScanBufferBytes)
    {
        struct stat st{};
        if (::fstat(fd, &st) == 0)
            size_ = static_cast<size_t>(st.st_size);
    }

    /** File length: the stat size, or where reading actually ended. */
    size_t size() const { return size_; }

    /**
     * @p len bytes at file offset @p off (at or past every earlier
     * window's offset), contiguous in the buffer; nullptr if the file
     * ends first. Invalidates every earlier window.
     */
    const uint8_t *
    window(size_t off, size_t len)
    {
        hermes_assert(off >= base_ && off - base_ <= filled_);
        size_t skip = off - base_;
        if (filled_ - skip >= len)
            return buf_.data() + skip;
        // Slide the unconsumed bytes to the front, grow only for a
        // record larger than the buffer, and refill behind them.
        std::memmove(buf_.data(), buf_.data() + skip, filled_ - skip);
        filled_ -= skip;
        base_ = off;
        if (len > buf_.size())
            buf_.resize(len);
        while (filled_ < len && !eof_) {
            ssize_t n = ::read(fd_, buf_.data() + filled_,
                               buf_.size() - filled_);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0) {
                // End of file — or an unreadable tail, which recovery
                // treats the same way: everything after it is torn.
                eof_ = true;
                size_ = base_ + filled_;
                break;
            }
            filled_ += static_cast<size_t>(n);
            size_ = std::max(size_, base_ + filled_);
        }
        return filled_ >= len ? buf_.data() : nullptr;
    }

    /** True if every byte from @p off to the end of the file is zero.
     *  Invalidates every earlier window. */
    bool
    zeroFrom(size_t off)
    {
        while (off < size_) {
            size_t len = std::min(Wal::kScanBufferBytes, size_ - off);
            const uint8_t *bytes = window(off, len);
            if (!bytes)
                continue; // the file ended short: size_ shrank to it
            if (std::any_of(bytes, bytes + len,
                            [](uint8_t b) { return b != 0; }))
                return false;
            off += len;
        }
        return true;
    }

  private:
    int fd_;
    std::vector<uint8_t> buf_;
    size_t base_ = 0;   ///< file offset of buf_[0]
    size_t filled_ = 0; ///< valid bytes in buf_
    size_t size_ = 0;
    bool eof_ = false;
};

} // namespace

Wal::ScanResult
Wal::scan(const std::string &path, const WalVisitor &visit)
{
    ScanResult out;
    scanInto(path, visit, out);
    return out;
}

void
Wal::scanInto(const std::string &path, const WalVisitor &visit,
              ScanResult &out)
{
    out = ScanResult{};
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return; // first boot: no log yet
    struct Closer
    {
        int fd;
        ~Closer() { ::close(fd); }
    } closer{fd};
    LogReader reader(fd);

    // Everything past the last good record at @p off is either zeroed
    // space the log had not written yet or a torn tail.
    auto endAt = [&](size_t off) {
        out.cleanBytes = off;
        size_t torn = reader.zeroFrom(off) ? 0 : reader.size() - off;
        out.tornBytes = torn;
        out.zeroTailBytes = reader.size() - off - torn;
    };

    // Decode records of one format generation starting at @p start.
    // @p payload_header_bytes distinguishes the generations: 29 for the
    // current format, 25 for the headerless v1 layout (no slot-map
    // epoch; those records predate elastic sharding, so their epoch is
    // the initial map's, 1). Every early exit is the end-of-log exit.
    auto scanRecords = [&](size_t start, size_t payload_header_bytes,
                           uint32_t map_epoch_default) {
        size_t off = start;
        for (;;) {
            const uint8_t *frame = reader.window(off, kFrameHeaderBytes);
            if (!frame)
                break; // truncated mid-header
            uint32_t payload_len = leLoad32(frame);
            uint32_t crc = leLoad32(frame + 4);
            if (payload_len < payload_header_bytes
                    || payload_len > reader.size() - off - kFrameHeaderBytes)
                break; // truncated mid-payload, or a garbage length field
            frame = reader.window(off, kFrameHeaderBytes + payload_len);
            if (!frame)
                break; // the file ended short of its stat size
            const uint8_t *payload = frame + kFrameHeaderBytes;
            if (crc32(payload, payload_len) != crc)
                break; // bit rot or a torn multi-sector write
            uint32_t value_len =
                leLoad32(payload + payload_header_bytes - 4);
            if (value_len != payload_len - payload_header_bytes)
                break; // internally inconsistent (CRC collision land)
            WalRecordView rec;
            rec.shard = leLoad32(payload);
            rec.key = leLoad64(payload + 4);
            rec.ts.version = leLoad32(payload + 12);
            rec.ts.cid = leLoad32(payload + 16);
            rec.flags = payload[20];
            rec.mapEpoch = payload_header_bytes >= kPayloadHeaderBytes
                               ? leLoad32(payload + 21)
                               : map_epoch_default;
            rec.value = std::string_view(
                reinterpret_cast<const char *>(payload)
                    + payload_header_bytes,
                value_len);
            ++out.records;
            if (visit)
                visit(rec);
            off += kFrameHeaderBytes + payload_len;
        }
        endAt(off);
    };

    const uint8_t *header = reader.window(0, kFileHeaderBytes);
    if (!header) {
        // Empty, or cut inside the file header itself (a crash during
        // creation): no record fits in fewer bytes under ANY format, so
        // the whole file is a torn tail. The constructor truncates it
        // and writes a fresh header.
        endAt(0);
        return;
    }

    if (leLoad32(header) == kFileMagic) {
        uint32_t version = leLoad32(header + 4);
        if (version != kFormatVersion) {
            // A well-formed header from another generation of this code
            // is NOT corruption: silently scanning it as a torn tail
            // would discard the whole log. Refuse loudly instead.
            panic("wal: %s is format version %u, this build reads "
                  "version %u — refusing to discard it as garbage",
                  path.c_str(), version, kFormatVersion);
        }
        scanRecords(kFileHeaderBytes, kPayloadHeaderBytes, 0);
        return;
    }

    // No magic, and nothing but zeros: a log zero-filled ahead before
    // its header reached the disk. It holds no record.
    bool zero_head = std::all_of(header, header + kFileHeaderBytes,
                                 [](uint8_t b) { return b == 0; });
    if (zero_head && reader.zeroFrom(0)) {
        out.zeroTailBytes = reader.size();
        return;
    }

    // No magic: the only headerless format ever released is v1 (25-byte
    // record payload header, no slot-map epoch). If the head of the file
    // decodes as v1, it is a pre-upgrade log — stream its records up and
    // let the constructor rewrite it in the current format. (A v1 log
    // never starts with a zero length word.)
    if (!zero_head) {
        constexpr size_t kV1PayloadHeaderBytes = 25;
        out.formatVersion = 1;
        scanRecords(0, kV1PayloadHeaderBytes, 1);
        if (out.records > 0)
            return;
    }

    // Neither a current header nor a v1 prefix: this is not a WAL this
    // build knows how to read. Truncating it to nothing would silently
    // destroy whatever it is — fail loudly and leave the file alone.
    panic("wal: %s matches no known WAL format (no header magic, no "
          "v1 record at the head) — refusing to truncate it",
          path.c_str());
}

} // namespace hermes::store
