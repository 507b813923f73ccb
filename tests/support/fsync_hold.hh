/**
 * @file
 * FsyncHold: while alive, every WAL fsync in the process waits inside
 * store::setBeforeFsyncHook until release() (or destruction), so a test
 * can hold the log writers mid-commit. Release before stopping anything
 * that waits for its log to be durable.
 */

#ifndef HERMES_TESTS_SUPPORT_FSYNC_HOLD_HH
#define HERMES_TESTS_SUPPORT_FSYNC_HOLD_HH

#include <condition_variable>
#include <mutex>

#include "store/wal.hh"

namespace hermes::test
{

class FsyncHold
{
  public:
    FsyncHold()
    {
        {
            std::lock_guard<std::mutex> guard(state().m);
            state().held = true;
        }
        store::setBeforeFsyncHook(&wait);
    }

    ~FsyncHold()
    {
        release();
        store::setBeforeFsyncHook(nullptr);
    }

    FsyncHold(const FsyncHold &) = delete;
    FsyncHold &operator=(const FsyncHold &) = delete;

    void
    release()
    {
        {
            std::lock_guard<std::mutex> guard(state().m);
            state().held = false;
        }
        state().cv.notify_all();
    }

  private:
    struct State
    {
        std::mutex m;
        std::condition_variable cv;
        bool held = false;
    };

    static State &
    state()
    {
        static State s;
        return s;
    }

    static void
    wait()
    {
        std::unique_lock<std::mutex> lock(state().m);
        state().cv.wait(lock, [] { return !state().held; });
    }
};

} // namespace hermes::test

#endif // HERMES_TESTS_SUPPORT_FSYNC_HOLD_HH
