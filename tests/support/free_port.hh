/**
 * @file
 * PortLane: a run of consecutive localhost ports a TCP test may bind.
 * Each suite starts at its own base port, far enough from the others
 * that the suites of one build never overlap. A PortLane takes the first
 * lane of `width` ports at or above its start, stepping by `width`, that
 * no live PortLane in any process holds and whose every port binds right
 * now — so one suite from two builds (plain, ASan, TSan) can run side by
 * side. The hold is one abstract-namespace unix socket per port, gone
 * when the PortLane (or its process) dies. A program that does not use
 * PortLane can still take a port between the probe and the deployment's
 * own bind.
 */

#ifndef HERMES_TESTS_SUPPORT_FREE_PORT_HH
#define HERMES_TESTS_SUPPORT_FREE_PORT_HH

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/logging.hh"

namespace hermes::test
{

class PortLane
{
  public:
    PortLane(uint16_t start, uint16_t width) : width_(width)
    {
        for (uint32_t base = start; base + width <= 65535; base += width) {
            if (take(static_cast<uint16_t>(base))) {
                base_ = static_cast<uint16_t>(base);
                return;
            }
        }
        panic("no free lane of %u ports at or above %u", width, start);
    }

    ~PortLane() { release(); }

    PortLane(const PortLane &) = delete;
    PortLane &operator=(const PortLane &) = delete;

    /** The lane's first port. */
    uint16_t base() const { return base_; }

  private:
    bool
    take(uint16_t base)
    {
        for (uint16_t i = 0; i < width_; ++i) {
            int hold = holdPort(static_cast<uint16_t>(base + i));
            if (hold >= 0)
                holds_.push_back(hold);
            if (hold < 0 || !bindable(static_cast<uint16_t>(base + i))) {
                release();
                return false;
            }
        }
        return true;
    }

    void
    release()
    {
        for (int fd : holds_)
            close(fd);
        holds_.clear();
    }

    /** This process's hold on @p port, or -1 when another has it. */
    static int
    holdPort(uint16_t port)
    {
        int fd = socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        // A leading NUL: the abstract namespace, no file to clean up.
        int len = std::snprintf(addr.sun_path + 1, sizeof(addr.sun_path) - 1,
                                "hermes-test-port-%u", port);
        socklen_t size = static_cast<socklen_t>(
            offsetof(sockaddr_un, sun_path) + 1 + len);
        if (fd >= 0
                && bind(fd, reinterpret_cast<sockaddr *>(&addr), size) == 0)
            return fd;
        if (fd >= 0)
            close(fd);
        return -1;
    }

    /** Whether @p port binds now the way a replica's listener binds. */
    static bool
    bindable(uint16_t port)
    {
        int fd = socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            return false;
        int one = 1;
        setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        bool ok =
            bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) == 0;
        close(fd);
        return ok;
    }

    uint16_t width_;
    uint16_t base_ = 0;
    std::vector<int> holds_;
};

} // namespace hermes::test

#endif // HERMES_TESTS_SUPPORT_FREE_PORT_HH
