#include "net/tcp_cluster.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <set>
#include <span>

#include "common/logging.hh"
#include "common/serialize.hh"
#include "net/client_msgs.hh"

namespace hermes::net
{

namespace
{

// kHelloMagic / kHelloClient / kFrameBatch live in the header (shared
// with out-of-file client implementations); these two are mesh-internal.
constexpr uint32_t kHelloPeer = 0;
constexpr uint8_t kFrameCredit = 1;

/** One staged outbound message in scatter/gather form (shared: a
 *  broadcast stages the same frame toward every destination). */
using FramePtr = std::shared_ptr<const WireFrame>;

/** A staged frame and the log record it waits for (0: none). */
struct Staged
{
    FramePtr frame;
    uint64_t waitSeq = 0;
};

/** Short-writev tails re-staged (see TcpCluster::partialWriteTails). */
std::atomic<uint64_t> g_partial_write_tails{0};

/** Poll-boundary peer-credit flushes (starvation-fix introspection). */
std::atomic<uint64_t> g_credit_returns_flushed{0};

/** Client sessions paused on credit exhaustion. */
std::atomic<uint64_t> g_session_pauses{0};

/** High-water mark of per-session in-flight requests. */
std::atomic<uint64_t> g_max_session_inflight{0};

/** Process-wide connect() attempts (see DialBackoff::dialAttempts). */
std::atomic<uint64_t> g_dial_attempts{0};

/** The planted bug (see TcpCluster::releaseFramesEarly). */
std::atomic<bool> g_release_early{false};

/** The NodeLoop whose run() owns the calling thread (null elsewhere):
 *  how a loop tells its own thread from callers it must post() for. */
thread_local const void *t_current_loop = nullptr;

void
noteSessionInflight(uint32_t inflight)
{
    uint64_t seen = g_max_session_inflight.load(std::memory_order_relaxed);
    while (inflight > seen
           && !g_max_session_inflight.compare_exchange_weak(
                  seen, inflight, std::memory_order_relaxed)) {
    }
}

/** A refcounted receive slab: decoded messages alias value bytes inside
 *  it and keep it alive past the transport's recycle (shared_ptr). */
using RecvSlab = std::shared_ptr<std::vector<uint8_t>>;

FramePtr
encodeFrame(const Message &msg)
{
    auto frame = std::make_shared<WireFrame>();
    encodeMessage(msg, *frame);
    return frame;
}

TimeNs
steadyNowNs()
{
    using namespace std::chrono;
    return duration_cast<nanoseconds>(
               steady_clock::now().time_since_epoch())
        .count();
}

void
setNonBlocking(int fd)
{
    int flags = fcntl(fd, F_GETFL, 0);
    fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void
setNoDelay(int fd)
{
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void
setSndBuf(int fd, int bytes)
{
    if (bytes > 0)
        setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
}

void
setRcvBuf(int fd, int bytes)
{
    if (bytes > 0)
        setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
}

/** Flatten staged frames into one batch frame (copy fallback path). */
void
encodeBatchFrame(std::span<const Staged> messages, std::vector<uint8_t> &out)
{
    size_t body = 3; // kind + u16 count
    for (const Staged &m : messages)
        body += 4 + m.frame->size();
    BufWriter writer(out);
    writer.putU32(static_cast<uint32_t>(body));
    writer.putU8(kFrameBatch);
    writer.putU16(static_cast<uint16_t>(messages.size()));
    for (const Staged &m : messages) {
        writer.putU32(static_cast<uint32_t>(m.frame->size()));
        m.frame->flattenTo(out);
    }
}

/** A credit frame: u32 length (5), kind, u32 credits returned. */
constexpr size_t kCreditFrameBytes = 9;

void
storeCreditFrame(uint32_t credits, uint8_t *out)
{
    leStore32(out, 5);
    out[4] = kFrameCredit;
    leStore32(out + 5, credits);
}

void
encodeCreditFrame(uint32_t credits, std::vector<uint8_t> &out)
{
    uint8_t frame[kCreditFrameBytes];
    storeCreditFrame(credits, frame);
    out.insert(out.end(), frame, frame + kCreditFrameBytes);
}

} // namespace

// ---------------------------------------------------------------------
// DialBackoff
// ---------------------------------------------------------------------

DialBackoff::DialBackoff(uint64_t seed)
    : state_(seed ? seed
                  : static_cast<uint64_t>(steadyNowNs())
                        ^ reinterpret_cast<uintptr_t>(this))
{}

uint32_t
DialBackoff::nextDelayMs()
{
    // Full jitter over [base, 2*base): concurrent clients whose shard
    // died at the same instant must not redial in lockstep.
    state_ += 0x9E3779B97F4A7C15ull;
    uint64_t mixed = state_;
    mixed = (mixed ^ (mixed >> 30)) * 0xBF58476D1CE4E5B9ull;
    mixed = (mixed ^ (mixed >> 27)) * 0x94D049BB133111EBull;
    mixed ^= mixed >> 31;
    uint32_t delay = baseMs_ + static_cast<uint32_t>(mixed % baseMs_);
    baseMs_ = std::min(baseMs_ * 2, kCapMs);
    return delay;
}

uint64_t
DialBackoff::dialAttempts()
{
    return g_dial_attempts.load(std::memory_order_relaxed);
}

void
DialBackoff::resetDialAttempts()
{
    g_dial_attempts.store(0, std::memory_order_relaxed);
}

void
DialBackoff::noteDialAttempt()
{
    g_dial_attempts.fetch_add(1, std::memory_order_relaxed);
}

int
dialClient(uint16_t port, int connect_attempts, uint32_t session_credits)
{
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    DialBackoff backoff;
    for (int attempt = 0; attempt < connect_attempts; ++attempt) {
        DialBackoff::noteDialAttempt();
        if (connect(fd, reinterpret_cast<sockaddr *>(&addr),
                    sizeof(addr)) == 0) {
            setNoDelay(fd);
            uint8_t hello[12];
            leStore32(hello, kHelloMagic);
            leStore32(hello + 4, kHelloClient);
            leStore32(hello + 8, session_credits);
            if (send(fd, hello, sizeof(hello), MSG_NOSIGNAL) ==
                    static_cast<ssize_t>(sizeof(hello)))
                return fd;
            break;
        }
        // No immediate redial, and no sleep after the final failure:
        // the backoff paces the retries, the attempt budget bounds them.
        if (attempt + 1 < connect_attempts) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoff.nextDelayMs()));
        }
    }
    close(fd);
    return -1;
}

void
appendClientFrame(const Message &msg, std::vector<uint8_t> &out)
{
    constexpr size_t kHeader = 4 + 1 + 2 + 4;
    size_t base = out.size();
    out.resize(base + kHeader);
    encodeMessage(msg, out);
    size_t body = out.size() - base - kHeader;
    uint8_t *header = out.data() + base;
    leStore32(header, static_cast<uint32_t>(1 + 2 + 4 + body));
    header[4] = kFrameBatch;
    leStore16(header + 5, 1);
    leStore32(header + 7, static_cast<uint32_t>(body));
}

size_t
walkFrames(const std::vector<uint8_t> &rx,
           const std::function<bool(std::shared_ptr<Message>)> &visit)
{
    size_t off = 0;
    while (rx.size() - off >= 4) {
        uint32_t frame_len = leLoad32(rx.data() + off);
        if (rx.size() - off - 4 < frame_len)
            break;
        BufReader reader(rx.data() + off + 4, frame_len);
        off += 4 + frame_len;
        if (reader.getU8() != kFrameBatch)
            continue; // client links carry no credit frames
        uint16_t count = reader.getU16();
        for (uint16_t i = 0; i < count && reader.ok(); ++i) {
            uint32_t msg_len = reader.getU32();
            if (!reader.ok() || reader.remaining() < msg_len)
                break;
            std::shared_ptr<Message> msg =
                decodeMessage(reader.cursor(), msg_len);
            reader.skip(msg_len);
            if (msg && !visit(std::move(msg)))
                return off;
        }
    }
    return off;
}

// ---------------------------------------------------------------------
// NodeLoop
// ---------------------------------------------------------------------

class TcpCluster::NodeLoop
{
  public:
    NodeLoop(TcpCluster &cluster, NodeId id, size_t num_nodes,
             const TcpConfig &config)
        : cluster_(cluster), id_(id), numNodes_(num_nodes), config_(config),
          env_(*this)
    {
        wakeFd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
        if (wakeFd_ < 0)
            fatal("eventfd() failed: %s", strerror(errno));
        epollFd_ = epoll_create1(0);
        if (epollFd_ < 0)
            fatal("epoll_create1() failed: %s", strerror(errno));
        watch(wakeFd_, EPOLLIN);
    }

    ~NodeLoop()
    {
        close(wakeFd_);
        if (listenFd_ >= 0)
            close(listenFd_);
        close(epollFd_);
        for (auto &kv : conns_)
            close(kv.second.fd);
    }

    /** Env implementation living on this loop. */
    class LoopEnv : public Env
    {
      public:
        explicit LoopEnv(NodeLoop &loop)
            : loop_(loop), rng_(0xC0FFEEull + loop.id_)
        {}

        NodeId self() const override { return loop_.id_; }
        TimeNs now() const override { return steadyNowNs(); }

        void
        send(NodeId dst, MessagePtr msg) override
        {
            loop_.stageToPeer(dst, *msg);
        }

        void
        broadcast(const NodeSet &dsts, MessagePtr msg) override
        {
            // Wings broadcast: one encode, many unicasts sharing the
            // same gathered frame (and therefore the same value
            // buffers — zero per-copy byte cost).
            const_cast<Message &>(*msg).src = loop_.id_;
            Staged staged{encodeFrame(*msg), loop_.logStamp()};
            for (NodeId dst : dsts) {
                if (dst != loop_.id_)
                    loop_.stageEncoded(dst, staged);
            }
        }

        TimerId
        setTimer(DurationNs after, std::function<void()> fn) override
        {
            return loop_.addTimer(after, std::move(fn));
        }

        void cancelTimer(TimerId id) override { loop_.cancelTimer(id); }
        Rng &rng() override { return rng_; }

        void
        attachLog(DurableLog *log) override
        {
            Env::attachLog(log);
            if (log)
                log->startWriter([&loop = loop_] { loop.wake(); });
        }

      private:
        NodeLoop &loop_;
        Rng rng_;
    };

    void
    bindListener()
    {
        listenFd_ = socket(AF_INET, SOCK_STREAM, 0);
        if (listenFd_ < 0)
            fatal("socket() failed: %s", strerror(errno));
        int one = 1;
        setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        setRcvBuf(listenFd_, config_.rcvbufBytes); // inherited on accept
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port());
        if (bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                 sizeof(addr)) != 0) {
            fatal("bind(port %u) failed: %s", port(), strerror(errno));
        }
        // A massive-client deployment sees connect bursts of hundreds
        // of sessions; a short backlog would drop SYNs and stall dials
        // behind kernel retransmit timers.
        if (listen(listenFd_, 1024) != 0)
            fatal("listen() failed: %s", strerror(errno));
        setNonBlocking(listenFd_);
        watch(listenFd_, EPOLLIN);
    }

    uint16_t port() const { return config_.basePort + id_; }

    void
    startThread()
    {
        ++lives_;
        thread_ = std::thread([this] { run(); });
    }

    void
    stopThread()
    {
        stop_.store(true);
        wake();
        if (thread_.joinable())
            thread_.join();
        // Scrub the dead loop's leftovers so a later restartThread()
        // cannot fire the previous life's timers or cross-thread calls
        // into a replaced replica object, or flush stale frames to a
        // recycled fd number.
        timerHeap_.clear();
        timerFns_.clear();
        stagedFds_.clear();
        resumable_.clear();
        {
            std::lock_guard<std::mutex> guard(injectMutex_);
            injected_.clear();
        }
    }

    /**
     * Bring a crashed loop back up. The listener is still bound (run()'s
     * exit path deliberately keeps it) and the epoll instance — with the
     * wake eventfd and listener registrations — lives as long as the loop,
     * so the new thread only re-dials the mesh. Timers registered
     * between the join and this call (the replacement replica's
     * constructor arms its heartbeats through the loop Env) are kept:
     * stopThread() already scrubbed everything older.
     */
    void
    restartThread()
    {
        hermes_assert(!thread_.joinable() && stop_.load());
        ++lives_; // before stop_ clears: a reader never sees the old life
        stop_.store(false);
        rejoin_ = true;
        thread_ = std::thread([this] { run(); });
    }

    bool
    running() const
    {
        return thread_.joinable() && !stop_.load();
    }

    /** 0 while down, else the count of thread starts (atomics only, so
     *  any thread may ask). */
    uint64_t incarnation() const { return stop_.load() ? 0 : lives_.load(); }

    /** Loop-thread only: close the listener so no new peer or client
     *  connection is ever accepted again (drain phase 1). */
    void
    stopAccepting()
    {
        if (listenFd_ < 0)
            return;
        epoll_ctl(epollFd_, EPOLL_CTL_DEL, listenFd_, nullptr);
        close(listenFd_);
        listenFd_ = -1;
    }

    /** True on this loop's own thread, while run() owns it. */
    bool onLoop() const { return t_current_loop == this; }

    /** Loop-thread only: true if this loop routes to every node in
     *  @p nodes but itself. */
    bool
    routesTo(const std::vector<NodeId> &nodes) const
    {
        return std::all_of(nodes.begin(), nodes.end(), [this](NodeId n) {
            return n == id_ || peerFd_.count(n) > 0;
        });
    }

    /** Loop-thread only: close the route to @p peer, whose loop is down
     *  (its sockets died with it), before its EOF arrives. */
    void
    dropPeer(NodeId peer)
    {
        auto it = peerFd_.find(peer);
        if (it != peerFd_.end())
            closeConn(it->second);
    }

    /** Queue @p fn for the loop's next poll boundary. Only the post that
     *  makes the queue non-empty signals: until the loop swaps the queue
     *  out, that one signal covers every post behind it. */
    void
    post(std::function<void()> fn)
    {
        bool first;
        {
            std::lock_guard<std::mutex> guard(injectMutex_);
            first = injected_.empty();
            injected_.push_back(std::move(fn));
        }
        if (first)
            wake();
    }

    void
    runOnAndWait(std::function<void()> fn)
    {
        if (onLoop()) {
            fn(); // already on the loop; run inline to avoid self-deadlock
            return;
        }
        // The sync state is shared, not stack-local: a spuriously woken
        // waiter can observe `done`, return, and unwind while the loop
        // thread is still inside notify_one() — the closure's reference
        // keeps the cv/mutex alive through that window.
        struct SyncState
        {
            std::mutex m;
            std::condition_variable cv;
            bool done = false;
        };
        auto state = std::make_shared<SyncState>();
        post([state, fn = std::move(fn)] {
            fn();
            {
                std::lock_guard<std::mutex> guard(state->m);
                state->done = true;
            }
            state->cv.notify_one();
        });
        std::unique_lock<std::mutex> lock(state->m);
        state->cv.wait(lock,
                       [&] { return state->done || stop_.load(); });
    }

    Node *node = nullptr;
    ClientFrameHandler clientHandler;

    LoopEnv &env() { return env_; }

    /**
     * Stage a reply frame for a client session. On the loop's own thread
     * (every protocol callback) the frame is staged directly: no lock,
     * no closure, no wake-up write. Other threads go through post().
     * Either way the frame leaves at a flushStaged() once the log is
     * durable up to the frame's stamp (see stage()).
     */
    void
    replyToClient(ClientConnId conn_id, FramePtr frame)
    {
        if (!onLoop()) {
            post([this, conn_id, frame = std::move(frame)]() mutable {
                stageReply(conn_id, std::move(frame));
            });
            return;
        }
        stageReply(conn_id, std::move(frame));
    }

    void
    stageReply(ClientConnId conn_id, FramePtr frame)
    {
        auto it = clientConns_.find(conn_id);
        if (it == clientConns_.end())
            return;
        int fd = it->second;
        Conn &conn = conns_[fd];
        stage(conn, {std::move(frame), logStamp()});
        if (conn.inflight > 0)
            --conn.inflight;
        // The reply may be running inside a parseRx (a synchronous read,
        // a peer frame's commit): resuming here would re-enter it. Queue
        // the session for the poll boundary instead.
        if (conn.paused && conn.inflight < conn.sessionCredits)
            resumable_.push_back(conn_id);
    }

    /** Poll boundary: read again from every session that replies
     *  drained below its window, starting with whatever was left
     *  buffered at pause time. */
    void
    resumeSessions()
    {
        std::vector<ClientConnId> ids;
        ids.swap(resumable_);
        for (ClientConnId id : ids) {
            auto it = clientConns_.find(id);
            if (it == clientConns_.end())
                continue;
            int fd = it->second;
            Conn &conn = conns_[fd];
            if (!conn.paused)
                continue; // queued twice, or already resumed
            conn.paused = false;
            syncInterest(conn);
            // Frames already buffered never generate another poll event
            // (level-triggering watches the socket, not our slab): parse
            // them now. This may legitimately re-pause the session.
            parseRx(fd);
        }
    }

    uint32_t
    sessionCreditsOf(ClientConnId conn_id) const
    {
        auto it = clientConns_.find(conn_id);
        if (it == clientConns_.end())
            return 0;
        auto conn = conns_.find(it->second);
        return conn == conns_.end() ? 0 : conn->second.sessionCredits;
    }

  private:
    struct Conn
    {
        int fd = -1;
        bool isPeer = false;
        NodeId peerId = kInvalidNode;       // valid when isPeer
        ClientConnId clientId = 0;          // valid when !isPeer
        bool helloDone = false;
        /**
         * Receive slab. Refcounted: decoded messages alias value bytes
         * inside it, so the slab is immutable while shared — the parse
         * loop rolls over to a fresh slab instead of compacting in place
         * whenever a decoded message still pins the current one.
         */
        RecvSlab rx;
        std::vector<uint8_t> tx;
        uint32_t sendCredits = 0;           // credits we hold toward peer
        uint32_t recvSinceCredit = 0;       // messages since credit return
        std::deque<Staged> creditWait;      // blocked on credits
        std::vector<Staged> staged;         // waiting for flushStaged
        /**
         * Client-session flow control: requests delivered to the
         * service and not yet replied to. When it reaches the granted
         * window the loop stops reading (and parsing) this session —
         * bytes back up into the kernel socket buffers and the client
         * blocks, instead of the server's queues ballooning.
         */
        uint32_t inflight = 0;
        uint32_t sessionCredits = 0;        // granted window (0 = none)
        bool paused = false;                // not reading: over window
        uint32_t armedEvents = 0;           // currently-registered events
    };

    /** Events this connection should be watched for right now. */
    static uint32_t
    wantedEvents(const Conn &conn)
    {
        uint32_t events = conn.paused ? 0u : EPOLLIN;
        if (!conn.tx.empty())
            events |= EPOLLOUT;
        return events;
    }

    /** Register @p fd with the epoll instance for @p events. */
    void
    watch(int fd, uint32_t events)
    {
        epoll_event ev{};
        ev.events = events;
        ev.data.fd = fd;
        epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev);
    }

    /** Re-arm the epoll registration if interest changed. */
    void
    syncInterest(Conn &conn)
    {
        uint32_t wanted = wantedEvents(conn);
        if (wanted == conn.armedEvents)
            return;
        epoll_event ev{};
        ev.events = wanted;
        ev.data.fd = conn.fd;
        epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn.fd, &ev);
        conn.armedEvents = wanted;
    }

    void
    wake()
    {
        uint64_t one = 1;
        ssize_t rc = write(wakeFd_, &one, sizeof(one));
        (void)rc;
    }

    struct Timer
    {
        TimeNs deadline;
        TimerId id;

        bool
        operator>(const Timer &other) const
        {
            return deadline != other.deadline ? deadline > other.deadline
                                              : id > other.id;
        }
    };

    TimerId
    addTimer(DurationNs after, std::function<void()> fn)
    {
        TimerId id = nextTimerId_++;
        timerFns_[id] = std::move(fn);
        timerHeap_.push_back(Timer{steadyNowNs() + after, id});
        std::push_heap(timerHeap_.begin(), timerHeap_.end(),
                       std::greater<>());
        return id;
    }

    void cancelTimer(TimerId id) { timerFns_.erase(id); }

    void
    fireDueTimers()
    {
        TimeNs now = steadyNowNs();
        while (!timerHeap_.empty() && timerHeap_.front().deadline <= now) {
            std::pop_heap(timerHeap_.begin(), timerHeap_.end(),
                          std::greater<>());
            Timer t = timerHeap_.back();
            timerHeap_.pop_back();
            auto it = timerFns_.find(t.id);
            if (it == timerFns_.end())
                continue; // cancelled
            auto fn = std::move(it->second);
            timerFns_.erase(it);
            fn();
        }
    }

    int
    pollTimeoutMs() const
    {
        if (timerHeap_.empty())
            return 50;
        TimeNs now = steadyNowNs();
        TimeNs deadline = timerHeap_.front().deadline;
        if (deadline <= now)
            return 0;
        return static_cast<int>(
            std::min<uint64_t>((deadline - now) / 1000000ull + 1, 50));
    }

    // ---- connection management ----

    int
    connectToPeer(NodeId peer)
    {
        for (int attempt = 0; attempt < 100; ++attempt) {
            int fd = socket(AF_INET, SOCK_STREAM, 0);
            if (fd < 0)
                fatal("socket() failed: %s", strerror(errno));
            sockaddr_in addr{};
            addr.sin_family = AF_INET;
            addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
            addr.sin_port = htons(config_.basePort + peer);
            setRcvBuf(fd, config_.rcvbufBytes); // pre-connect: fixes window
            if (connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)) == 0) {
                setNoDelay(fd);
                setSndBuf(fd, config_.sndbufBytes);
                // Blocking hello (explicit LE), then switch to
                // non-blocking.
                uint8_t hello[12];
                leStore32(hello, kHelloMagic);
                leStore32(hello + 4, kHelloPeer);
                leStore32(hello + 8, id_);
                if (send(fd, hello, sizeof(hello), MSG_NOSIGNAL) !=
                        static_cast<ssize_t>(sizeof(hello))) {
                    close(fd);
                    continue;
                }
                setNonBlocking(fd);
                return fd;
            }
            close(fd);
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            if (stop_.load())
                return -1;
        }
        fatal("node %u could not connect to peer %u", id_, peer);
    }

    void
    registerConn(Conn conn)
    {
        int fd = conn.fd;
        Conn &slot = conns_[fd] = std::move(conn);
        slot.armedEvents = wantedEvents(slot);
        watch(fd, slot.armedEvents);
    }

    void
    establishMesh()
    {
        // Deterministic mesh: this node dials every lower id; higher ids
        // dial us (handled by the accept path). A REJOINING node dials
        // everyone instead: the higher ids dialed us once, at their own
        // startup, and never redial — the restarted node brings the full
        // mesh back itself, and the survivors learn its new socket from
        // the peer hello (which registers direction-agnostically).
        NodeId limit = rejoin_ ? static_cast<NodeId>(numNodes_) : id_;
        rejoin_ = false;
        for (NodeId peer = 0; peer < limit; ++peer) {
            if (peer == id_)
                continue;
            int fd = connectToPeer(peer);
            if (fd < 0)
                return;
            Conn conn;
            conn.fd = fd;
            conn.isPeer = true;
            conn.peerId = peer;
            conn.helloDone = true;
            conn.sendCredits = config_.creditsPerLink;
            registerConn(std::move(conn));
            peerFd_[peer] = fd;
        }
    }

    void
    acceptNew()
    {
        for (;;) {
            int fd = accept(listenFd_, nullptr, nullptr);
            if (fd < 0)
                return;
            setNoDelay(fd);
            setSndBuf(fd, config_.sndbufBytes);
            setNonBlocking(fd);
            Conn conn;
            conn.fd = fd;
            conn.helloDone = false;
            registerConn(std::move(conn));
        }
    }

    void
    closeConn(int fd)
    {
        auto it = conns_.find(fd);
        if (it == conns_.end())
            return;
        if (it->second.isPeer && it->second.peerId != kInvalidNode) {
            // Only un-map the peer if this fd still IS its route: after
            // a peer crash-restarts, its new dial re-registers the peer
            // id before the old socket's EOF necessarily arrives, and a
            // late close must not sever the fresh connection's mapping.
            auto pit = peerFd_.find(it->second.peerId);
            if (pit != peerFd_.end() && pit->second == fd)
                peerFd_.erase(pit);
        }
        if (!it->second.isPeer)
            clientConns_.erase(it->second.clientId);
        close(fd);
        conns_.erase(it);
    }

    // ---- Wings send path: staging + flush ----

    void
    stageToPeer(NodeId dst, const Message &msg)
    {
        const_cast<Message &>(msg).src = id_;
        stageEncoded(dst, {encodeFrame(msg), logStamp()});
    }

    void
    stageEncoded(NodeId dst, Staged staged)
    {
        auto it = peerFd_.find(dst);
        if (it == peerFd_.end())
            return; // peer gone: manifests as message loss, as designed
        Conn &conn = conns_[it->second];
        if (conn.sendCredits == 0) {
            conn.creditWait.push_back(std::move(staged));
            return;
        }
        --conn.sendCredits;
        stage(conn, std::move(staged));
    }

    /**
     * The log record a frame staged now waits for: the last one
     * appended, unless the sender opened a NoLogWait scope (or no log
     * is attached). Everything the handler that staged it logged is
     * then durable before the frame leaves: an ACK never precedes the
     * INV record it acknowledges.
     */
    uint64_t
    logStamp() const
    {
        DurableLog *log = env_.log();
        return log && env_.framesWaitForLog() ? log->appendedSeq() : 0;
    }

    /** The log is durable up to here, for releasing frames. */
    uint64_t
    releasableSeq() const
    {
        DurableLog *log = env_.log();
        if (!log)
            return UINT64_MAX;
        return g_release_early.load(std::memory_order_relaxed)
                   ? log->appendedSeq()
                   : log->durableSeq();
    }

    /** Queue @p staged on @p conn behind its earlier frames. */
    void
    stage(Conn &conn, Staged staged)
    {
        if (conn.staged.empty())
            stagedFds_.push_back(conn.fd);
        conn.staged.push_back(std::move(staged));
    }

    /**
     * Send every staged frame whose log records are durable, each
     * connection's in FIFO order: a frame leaves only behind every
     * frame staged before it on its connection, so one connection's
     * release is the longest prefix whose stamps releasableSeq()
     * covers, coalesced into batch frames. Which frames wait for
     * nothing is the protocol's to argue (NoLogWait; for Hermes, see
     * "Which frames wait for the log" in hermes/replica.cc).
     * Connections still holding frames stay listed for the next call;
     * the log's writer wakes the loop whenever durableSeq() advances.
     * Only conns that staged something are visited: with thousands of
     * mostly-idle client sessions the poll boundary stays O(active),
     * not O(connections).
     */
    void
    flushStaged()
    {
        const uint64_t durable = releasableSeq();
        size_t kept = 0;
        for (int fd : stagedFds_) {
            auto it = conns_.find(fd);
            if (it == conns_.end() || it->second.staged.empty())
                continue; // closed, or a recycled fd listed twice
            Conn &conn = it->second;
            size_t ready = 0;
            while (ready < conn.staged.size()
                   && conn.staged[ready].waitSeq <= durable)
                ++ready;
            // A batch frame counts its messages in a u16.
            constexpr size_t kMaxBatch = 4096;
            for (size_t off = 0; off < ready; off += kMaxBatch) {
                size_t count = std::min(kMaxBatch, ready - off);
                writeStaged(conn, {conn.staged.data() + off, count});
            }
            // Keeps its capacity: a steady flow allocates nothing here.
            auto first = conn.staged.begin();
            conn.staged.erase(first, first + static_cast<ptrdiff_t>(ready));
            if (!conn.staged.empty())
                stagedFds_[kept++] = fd;
        }
        stagedFds_.resize(kept);
    }

    /**
     * Poll-boundary credit return, for links whose withheld credits
     * reached half the window. Runs after flushStaged(), which already
     * led every peer batch with its credit frame: only peers this
     * iteration sent nothing to are left, and such a link gets a
     * standalone credit frame (a send, and a wakeup of the peer for a
     * 9-byte read) only once half its partner's window waits on it.
     * That never starves the partner: while its window is empty, every
     * one of its credits is withheld here, so the half mark is reached.
     */
    void
    returnPendingCredits()
    {
        for (auto &kv : peerFd_) {
            auto it = conns_.find(kv.second);
            if (it == conns_.end())
                continue;
            Conn &conn = it->second;
            if (!conn.helloDone
                    || 2 * uint64_t{conn.recvSinceCredit}
                           < config_.creditsPerLink)
                continue;
            encodeCreditFrame(conn.recvSinceCredit, conn.tx);
            conn.recvSinceCredit = 0;
            g_credit_returns_flushed.fetch_add(1,
                                               std::memory_order_relaxed);
            tryWrite(conn);
        }
    }

    /**
     * One writev-style flush: the frame header, the per-message length
     * prefixes, each message's staged fixed fields AND its gathered
     * value buffers (KVS snapshots, receive slabs being relayed) go out
     * in a single syscall with no intermediate copy — the scatter/gather
     * send half of the zero-copy value path. A peer's pending credit
     * return leads the batch in the same syscall. Falls back to the
     * flatten path when ordering (a backlogged tx) or iovec limits
     * require it.
     */
    void
    writeStaged(Conn &conn, std::span<const Staged> messages)
    {
        uint8_t credit[kCreditFrameBytes];
        size_t creditLen = 0;
        if (conn.isPeer && conn.recvSinceCredit > 0) {
            storeCreditFrame(conn.recvSinceCredit, credit);
            creditLen = kCreditFrameBytes;
            conn.recvSinceCredit = 0;
            g_credit_returns_flushed.fetch_add(1,
                                               std::memory_order_relaxed);
        }
        // A pending backlog must drain first to preserve byte order; and
        // the gathered iovec list must stay clear of IOV_MAX (1024).
        size_t iovNeeded = 2;
        for (const Staged &m : messages)
            iovNeeded += 1 + m.frame->iovecCount();
        if (!conn.tx.empty() || iovNeeded > 1000) {
            conn.tx.insert(conn.tx.end(), credit, credit + creditLen);
            encodeBatchFrame(messages, conn.tx);
            tryWrite(conn);
            return;
        }

        size_t body = 3; // kind + u16 count
        for (const Staged &m : messages)
            body += 4 + m.frame->size();
        uint8_t header[7];
        leStore32(header, static_cast<uint32_t>(body));
        header[4] = kFrameBatch;
        leStore16(header + 5, static_cast<uint16_t>(messages.size()));

        // Member scratch, reused across flushes: a flush per peer and
        // per replying session each iteration must not cost two mallocs.
        std::vector<uint8_t> &lens = lensScratch_;
        std::vector<iovec> &iov = iovScratch_;
        lens.resize(4 * messages.size());
        iov.clear();
        iov.reserve(iovNeeded);
        if (creditLen > 0)
            iov.push_back({credit, creditLen});
        iov.push_back({header, sizeof(header)});
        size_t total = creditLen + sizeof(header);
        for (size_t i = 0; i < messages.size(); ++i) {
            size_t msg_len = messages[i].frame->size();
            leStore32(lens.data() + 4 * i, static_cast<uint32_t>(msg_len));
            iov.push_back({lens.data() + 4 * i, 4});
            messages[i].frame->forEachRun([&iov](const void *data, size_t len) {
                iov.push_back({const_cast<void *>(data), len});
            });
            total += 4 + msg_len;
        }

        // sendmsg, not writev: MSG_NOSIGNAL makes a peer that closed
        // underneath us an EPIPE for the read path to reap, not a
        // process-killing SIGPIPE.
        msghdr hdr{};
        hdr.msg_iov = iov.data();
        hdr.msg_iovlen = iov.size();
        ssize_t n = sendmsg(conn.fd, &hdr, MSG_NOSIGNAL);
        if (n >= 0 && static_cast<size_t>(n) == total)
            return;
        // Queue the unwritten bytes (all of them on a failure: EAGAIN,
        // EINTR, ...) for poll-driven retry. A genuinely broken
        // connection discards tx when the read path closes it — never
        // silently drop messages between two live peers.
        if (n > 0)
            g_partial_write_tails.fetch_add(1, std::memory_order_relaxed);
        size_t skip = n > 0 ? static_cast<size_t>(n) : 0;
        for (const iovec &v : iov) {
            if (skip >= v.iov_len) {
                skip -= v.iov_len;
                continue;
            }
            const auto *base = static_cast<const uint8_t *>(v.iov_base);
            conn.tx.insert(conn.tx.end(), base + skip, base + v.iov_len);
            skip = 0;
        }
        syncInterest(conn);
    }

    void
    tryWrite(Conn &conn)
    {
        while (!conn.tx.empty()) {
            ssize_t n = send(conn.fd, conn.tx.data(), conn.tx.size(),
                             MSG_NOSIGNAL);
            if (n > 0) {
                conn.tx.erase(conn.tx.begin(), conn.tx.begin() + n);
            } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                break; // epoll will tell us when writable
            } else {
                break; // error path: closed on next read
            }
        }
        syncInterest(conn); // arm/disarm EPOLLOUT with the tx backlog
    }

    // ---- receive path ----

    void
    handleReadable(int fd)
    {
        auto it = conns_.find(fd);
        if (it == conns_.end())
            return;
        Conn &conn = it->second;
        // The slab must be exclusively ours before appending: growing a
        // vector a decoded message aliases would move its bytes out from
        // under live ValueRefs. parseRx already maintains that invariant
        // (it rolls a shared slab over to a fresh one at end of parse,
        // and pins only exist once a frame fully parsed), so the copy
        // branch below is unreachable defense-in-depth — if a future
        // change ever leaves a shared slab behind, we degrade to one
        // defensive copy instead of silent use-after-move corruption.
        if (!conn.rx) {
            conn.rx = std::make_shared<std::vector<uint8_t>>();
        } else if (conn.rx.use_count() > 1) {
            conn.rx = std::make_shared<std::vector<uint8_t>>(*conn.rx);
        }
        // Stop at the first short read: the socket is drained for now,
        // and epoll is level-triggered, so anything arriving later raises
        // another event. Reading on until EAGAIN costs one more syscall
        // per readable event for nothing.
        uint8_t buf[65536];
        for (;;) {
            ssize_t n = read(fd, buf, sizeof(buf));
            if (n > 0) {
                conn.rx->insert(conn.rx->end(), buf, buf + n);
                if (static_cast<size_t>(n) < sizeof(buf))
                    break;
            } else if (n == 0) {
                closeConn(fd);
                return;
            } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
                break;
            } else {
                closeConn(fd);
                return;
            }
        }
        parseRx(fd);
    }

    void
    parseRx(int fd)
    {
        auto connIt = conns_.find(fd);
        if (connIt == conns_.end() || !connIt->second.rx)
            return;
        Conn &conn = connIt->second;
        // Pin the slab locally: handleFrame may close the connection
        // (dropping conn.rx) while frames inside it are still being
        // walked, and decoded messages alias into it.
        RecvSlab slab = conn.rx;
        size_t off = 0;

        if (!conn.helloDone) {
            if (slab->size() < 12)
                return;
            uint32_t magic = leLoad32(slab->data());
            uint32_t kind = leLoad32(slab->data() + 4);
            uint32_t sender = leLoad32(slab->data() + 8);
            if (magic != kHelloMagic) {
                closeConn(fd);
                return;
            }
            off = 12;
            conn.helloDone = true;
            if (kind == kHelloPeer) {
                conn.isPeer = true;
                conn.peerId = sender;
                conn.sendCredits = config_.creditsPerLink;
                peerFd_[sender] = fd;
            } else {
                conn.isPeer = false;
                conn.clientId = nextClientId_++;
                clientConns_[conn.clientId] = fd;
                // HELLO credit negotiation (VAL-style limits-at-hello):
                // the client's third hello word requests a window; the
                // grant is clamped by our config (0 = take the default).
                uint32_t requested = sender;
                conn.sessionCredits =
                    requested == 0 ? config_.clientSessionCredits
                                   : std::min(requested,
                                              config_.clientSessionCredits);
            }
        }

        while (slab->size() - off >= 4) {
            if (!conn.isPeer && conn.sessionCredits > 0
                    && conn.inflight >= conn.sessionCredits) {
                // Session over its credit window: stop parsing here and
                // stop watching the socket. The unparsed tail stays
                // buffered; resumeSession() re-enters this loop once
                // replies drain the window below its grant.
                if (!conn.paused) {
                    conn.paused = true;
                    g_session_pauses.fetch_add(1,
                                               std::memory_order_relaxed);
                    syncInterest(conn);
                }
                break;
            }
            uint32_t frame_len = leLoad32(slab->data() + off);
            if (slab->size() - off - 4 < frame_len)
                break;
            handleFrame(fd, slab, slab->data() + off + 4, frame_len);
            // handleFrame may close the connection; revalidate.
            connIt = conns_.find(fd);
            if (connIt == conns_.end())
                return;
            off += 4 + frame_len;
        }
        if (off == 0)
            return;
        // use_count == 2 means only this frame's pin (slab) and conn.rx
        // hold the slab — safe to compact in place. Anything higher is a
        // decoded message still aliasing it.
        if (slab.use_count() > 2) {
            // Some decoded message aliases this slab: it is immutable
            // now. Roll over to a fresh slab holding only the unparsed
            // tail; the old slab lives for as long as its messages do.
            conn.rx = std::make_shared<std::vector<uint8_t>>(
                slab->begin() + off, slab->end());
        } else {
            conn.rx->erase(conn.rx->begin(), conn.rx->begin() + off);
        }
    }

    void
    handleFrame(int fd, const RecvSlab &slab, const uint8_t *data,
                size_t len)
    {
        Conn &conn = conns_[fd];
        BufReader reader(data, len, slab);
        uint8_t kind = reader.getU8();
        if (kind == kFrameCredit) {
            uint32_t credits = reader.getU32();
            if (!reader.ok() || !conn.isPeer)
                return;
            conn.sendCredits += credits;
            // Drain messages blocked on credits (stamps unchanged).
            while (conn.sendCredits > 0 && !conn.creditWait.empty()) {
                --conn.sendCredits;
                stage(conn, std::move(conn.creditWait.front()));
                conn.creditWait.pop_front();
            }
            return;
        }
        if (kind != kFrameBatch)
            return;
        uint16_t count = reader.getU16();
        for (uint16_t i = 0; i < count && reader.ok(); ++i) {
            uint32_t msg_len = reader.getU32();
            if (!reader.ok() || reader.remaining() < msg_len)
                return;
            // Decode in place: no body staging copy, and values above
            // the zero-copy threshold alias the slab (the message pins
            // it alive via its ValueRefs).
            std::shared_ptr<Message> msg =
                decodeMessage(reader.cursor(), msg_len, slab);
            reader.skip(msg_len);
            if (!msg)
                continue;
            if (conn.isPeer) {
                if (++conn.recvSinceCredit >= config_.creditReturnBatch) {
                    encodeCreditFrame(conn.recvSinceCredit, conn.tx);
                    conn.recvSinceCredit = 0;
                    tryWrite(conn);
                }
                if (node)
                    node->onMessage(msg);
            } else if (clientHandler) {
                // Session credit accounting: every delivered request
                // costs one credit, returned when the service's reply
                // is staged (replies ARE the credit return — the
                // implicit-credit degenerate case, made explicit).
                if (msg->type() == MsgType::ClientRequest) {
                    ++conn.inflight;
                    noteSessionInflight(conn.inflight);
                }
                clientHandler(conn.clientId, msg);
            }
        }
    }

    // ---- main loop ----

    /**
     * One O(ready) epoll wait instead of rebuilding an O(n) pollfd array
     * per iteration — the difference between serving tens and thousands
     * of client sessions per replica. Interest is kept in sync
     * incrementally (registerConn / syncInterest); a paused session
     * simply has EPOLLIN disarmed. @return false on a fatal wait error.
     */
    bool
    dispatch()
    {
        epoll_event events[256];
        int rc = epoll_wait(epollFd_, events, 256, pollTimeoutMs());
        if (rc < 0)
            return errno == EINTR;
        for (int i = 0; i < rc; ++i) {
            int fd = events[i].data.fd;
            uint32_t ev = events[i].events;
            if (fd == wakeFd_) {
                uint64_t signals;
                ssize_t n = read(wakeFd_, &signals, sizeof(signals));
                (void)n;
            } else if (fd == listenFd_) {
                acceptNew();
            } else {
                if (ev & (EPOLLIN | EPOLLHUP | EPOLLERR))
                    handleReadable(fd);
                auto it = conns_.find(fd);
                if (it != conns_.end() && (ev & EPOLLOUT))
                    tryWrite(it->second);
            }
        }
        return true;
    }

    void
    run()
    {
        t_current_loop = this;
        establishMesh();
        if (stop_.load()) {
            t_current_loop = nullptr;
            return;
        }
        if (node)
            node->start();
        env_.flush();
        flushStaged();

        while (!stop_.load()) {
            if (!dispatch())
                break;

            // Injected cross-thread calls.
            {
                std::lock_guard<std::mutex> guard(injectMutex_);
                running_.swap(injected_);
            }
            for (auto &fn : running_)
                fn();
            running_.clear(); // keeps its storage: no per-iteration malloc
            resumeSessions();

            fireDueTimers();

            // Records the writer made durable since the last iteration
            // reach the replica (a Hermes coordinator's own ACKs), whose
            // commits stage their VALs and replies here.
            if (DurableLog *log = env_.log())
                log->deliverDurable(releasableSeq());

            // Wings opportunistic batching: everything the handlers above
            // produced goes out coalesced, once per loop iteration, as
            // far as the log allows. The Env flush first hands this
            // window's records to the log's writer. Credit returns that
            // accumulated below the batch threshold flush here too — a
            // quiescent link must not withhold its partner's window (the
            // starvation fix).
            env_.flush();
            flushStaged();
            returnPendingCredits();
        }

        // Final best-effort flush on the way out: a graceful drain()
        // must commit the Env flush's records (WAL group-commit
        // buffers) and push every staged reply before the sockets close.
        // A crash-style stop loses whatever a real crash would lose —
        // the WAL's recovery path owns that case.
        env_.flush();
        if (DurableLog *log = env_.log())
            log->waitDurable(log->appendedSeq());
        flushStaged();

        for (auto &kv : conns_)
            close(kv.second.fd);
        conns_.clear();
        peerFd_.clear();
        clientConns_.clear();
        resumable_.clear();
        t_current_loop = nullptr;
        // The listener (still bound) and epoll instance survive for a
        // potential restartThread(); the destructor closes them.
    }

    TcpCluster &cluster_;
    NodeId id_;
    size_t numNodes_;
    TcpConfig config_;
    LoopEnv env_;

    int listenFd_ = -1;
    int epollFd_ = -1;
    int wakeFd_ = -1;
    std::thread thread_;
    std::atomic<bool> stop_{false};
    std::atomic<uint64_t> lives_{0};
    bool rejoin_ = false; ///< next run() re-dials the FULL mesh

    std::map<int, Conn> conns_;
    std::map<NodeId, int> peerFd_;
    std::map<ClientConnId, int> clientConns_;
    std::vector<int> stagedFds_; ///< conns with frames staged, this iteration
    /** Paused sessions replies drained below their window, resumed at
     *  the poll boundary (never from inside the parse that replied). */
    std::vector<ClientConnId> resumable_;
    std::vector<iovec> iovScratch_;      ///< writeStaged's gather list
    std::vector<uint8_t> lensScratch_;   ///< writeStaged's length prefixes
    ClientConnId nextClientId_ = 1;

    std::mutex injectMutex_;
    std::deque<std::function<void()>> injected_;
    std::deque<std::function<void()>> running_; ///< the batch being run

    std::vector<Timer> timerHeap_;
    std::map<TimerId, std::function<void()>> timerFns_;
    TimerId nextTimerId_ = 1;

    friend class TcpCluster;
};

// ---------------------------------------------------------------------
// TcpCluster
// ---------------------------------------------------------------------

TcpCluster::TcpCluster(size_t nodes, TcpConfig config) : config_(config)
{
    for (size_t i = 0; i < nodes; ++i) {
        loops_.push_back(std::make_unique<NodeLoop>(
            *this, static_cast<NodeId>(i), nodes, config_));
    }
}

TcpCluster::~TcpCluster()
{
    stop();
}

void
TcpCluster::attach(NodeId id, Node *node)
{
    loops_.at(id)->node = node;
}

void
TcpCluster::setClientHandler(NodeId id, ClientFrameHandler handler)
{
    loops_.at(id)->clientHandler = std::move(handler);
}

Env &
TcpCluster::env(NodeId id)
{
    return loops_.at(id)->env();
}

void
TcpCluster::start()
{
    hermes_assert(!started_);
    started_ = true;
    // Bind every listener before any connect so the dial-lower-ids mesh
    // establishment cannot race.
    for (auto &loop : loops_)
        loop->bindListener();
    for (auto &loop : loops_)
        loop->startThread();
    // Without the barrier, a client request racing the mesh could have
    // its protocol traffic silently dropped — fatal for protocols
    // without retransmission (e.g. CRAQ forwards).
    awaitMesh();
}

void
TcpCluster::awaitMesh()
{
    // A loop services injected calls only after establishMesh() and its
    // replica's start(), so each query below also waits for those. A
    // dialed link is routable at once; an accepted one only after the
    // loop read the dialer's hello, hence the polling.
    auto deadline = std::chrono::steady_clock::now() + kMeshDeadline;
    for (;;) {
        std::vector<NodeId> up;
        for (auto &loop : loops_) {
            if (loop->running())
                up.push_back(loop->id_);
        }
        bool whole = true;
        for (NodeId n : up) {
            // Shared: a loop stopped mid-query may still run the call
            // after runOnAndWait gave up on it.
            auto routes = std::make_shared<std::atomic<bool>>(false);
            NodeLoop &loop = *loops_[n];
            loop.runOnAndWait([routes, &loop, up] {
                routes->store(loop.routesTo(up));
            });
            whole = whole && routes->load();
        }
        if (whole)
            return;
        if (std::chrono::steady_clock::now() >= deadline) {
            LOG_WARN("tcp: mesh of %zu nodes not whole after %lld s",
                     up.size(),
                     static_cast<long long>(kMeshDeadline.count()));
            return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

void
TcpCluster::stop()
{
    if (!started_)
        return;
    for (auto &loop : loops_)
        loop->stopThread();
    started_ = false;
}

void
TcpCluster::runOn(NodeId id, std::function<void()> fn)
{
    loops_.at(id)->runOnAndWait(std::move(fn));
}

void
TcpCluster::post(NodeId id, std::function<void()> fn)
{
    loops_.at(id)->post(std::move(fn));
}

void
TcpCluster::replyToClient(NodeId id, ClientConnId conn, const Message &msg)
{
    const_cast<Message &>(msg).src = id;
    loops_.at(id)->replyToClient(conn, encodeFrame(msg));
}

void
TcpCluster::crash(NodeId id)
{
    loops_.at(id)->stopThread();
}

void
TcpCluster::restart(NodeId id)
{
    hermes_assert(started_);
    // The survivors' links to the node's last life are dead: close them
    // now, so the barrier below waits for the links its new life dials.
    for (auto &loop : loops_) {
        if (loop->id_ != id && loop->running())
            loop->runOnAndWait([&l = *loop, id] { l.dropPeer(id); });
    }
    loops_.at(id)->restartThread();
    awaitMesh();
}

bool
TcpCluster::running(NodeId id) const
{
    return loops_.at(id)->running();
}

uint64_t
TcpCluster::incarnation(NodeId id) const
{
    return loops_.at(id)->incarnation();
}

void
TcpCluster::drain()
{
    if (!started_)
        return;
    // Phase 1: close every listener so no new session lands while the
    // existing ones finish their in-flight replies.
    for (auto &loop : loops_) {
        if (loop->running())
            loop->runOnAndWait([&l = *loop] { l.stopAccepting(); });
    }
    // Phase 2: stop each loop; its exit path runs one final Env flush
    // (which the service wires to the WAL's group-commit flush) and
    // pushes staged frames before the sockets close.
    for (auto &loop : loops_)
        loop->stopThread();
    started_ = false;
}

uint16_t
TcpCluster::portOf(NodeId id) const
{
    return loops_.at(id)->port();
}

void
TcpCluster::releaseFramesEarly(bool on)
{
    g_release_early.store(on);
}

uint64_t
TcpCluster::partialWriteTails()
{
    return g_partial_write_tails.load(std::memory_order_relaxed);
}

uint32_t
TcpCluster::sessionCreditsOf(NodeId id, ClientConnId conn) const
{
    return loops_.at(id)->sessionCreditsOf(conn);
}

uint64_t
TcpCluster::creditReturnsFlushed()
{
    return g_credit_returns_flushed.load(std::memory_order_relaxed);
}

uint64_t
TcpCluster::sessionPauses()
{
    return g_session_pauses.load(std::memory_order_relaxed);
}

uint64_t
TcpCluster::maxSessionInflight()
{
    return g_max_session_inflight.load(std::memory_order_relaxed);
}

void
TcpCluster::resetSessionStats()
{
    g_session_pauses.store(0, std::memory_order_relaxed);
    g_max_session_inflight.store(0, std::memory_order_relaxed);
    g_credit_returns_flushed.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// TcpClient
// ---------------------------------------------------------------------

TcpClient::TcpClient(uint16_t port, int connect_attempts,
                     uint32_t session_credits)
    : fd_(dialClient(port, connect_attempts, session_credits))
{}

TcpClient::~TcpClient()
{
    if (fd_ >= 0)
        close(fd_);
}

std::shared_ptr<Message>
TcpClient::call(const Message &request, DurationNs timeout,
                uint64_t expect_req_id)
{
    if (fd_ < 0)
        return nullptr;

    std::vector<uint8_t> frame;
    appendClientFrame(request, frame);
    size_t written = 0;
    while (written < frame.size()) {
        ssize_t n = send(fd_, frame.data() + written,
                         frame.size() - written, MSG_NOSIGNAL);
        if (n <= 0)
            return nullptr;
        written += n;
    }

    TimeNs deadline = steadyNowNs() + timeout;
    for (;;) {
        std::shared_ptr<Message> result;
        size_t walked = walkFrames(rxBuf_, [&](std::shared_ptr<Message> msg) {
            // A late reply to an earlier call that timed out here.
            if (expect_req_id != 0 && msg->type() == MsgType::ClientReply
                    && static_cast<const ClientReplyMsg &>(*msg).reqId
                           != expect_req_id)
                return true;
            result = std::move(msg);
            return false;
        });
        rxBuf_.erase(rxBuf_.begin(),
                     rxBuf_.begin() + static_cast<long>(walked));
        if (result)
            return result;

        TimeNs now = steadyNowNs();
        if (now >= deadline)
            return nullptr;
        pollfd pfd{fd_, POLLIN, 0};
        int rc = poll(&pfd, 1,
                      static_cast<int>((deadline - now) / 1000000ull + 1));
        if (rc <= 0)
            continue;
        uint8_t buf[65536];
        ssize_t n = read(fd_, buf, sizeof(buf));
        if (n <= 0)
            return nullptr;
        rxBuf_.insert(rxBuf_.end(), buf, buf + n);
    }
}

} // namespace hermes::net
