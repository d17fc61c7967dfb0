#include "parallel.hh"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <thread>

#include "util/check.hh"
#include "util/mutex.hh"
#include "util/thread_annotations.hh"

namespace leca {

namespace {

/** True while the current thread is executing pool work: nested
 *  parallel regions degrade to serial execution instead of deadlocking
 *  on the pool's own workers. */
thread_local bool t_inParallelRegion = false;

int
threadCountFromEnv()
{
    const char *env = std::getenv("LECA_THREADS");
    if (env && env[0] != '\0') {
        const long parsed = std::strtol(env, nullptr, 10);
        if (parsed >= 1 && parsed <= 256)
            return static_cast<int>(parsed);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

/**
 * The global worker pool. One task (a runChunks call) runs at a time,
 * serialized by _runMutex. A task is published under _taskMutex; the
 * submitting thread and the sleeping workers then claim chunk indices
 * from a shared atomic counter until it runs dry, so load balances
 * dynamically while the chunk -> work mapping stays fixed. A new task
 * cannot be published while any thread is still inside the claiming
 * loop of the previous one (_activeClaimers gate), which keeps the
 * published task state race-free for late-waking workers.
 */
class ThreadPool
{
  public:
    static ThreadPool &
    instance()
    {
        static ThreadPool pool(threadCountFromEnv());
        return pool;
    }

    ~ThreadPool()
    {
        MutexLock run_lock(_runMutex);
        MutexLock lock(_configMutex);
        stopWorkers();
    }

    int
    threads() LECA_EXCLUDES(_configMutex)
    {
        MutexLock lock(_configMutex);
        return _threads;
    }

    void
    resize(int threads) LECA_EXCLUDES(_runMutex, _configMutex)
    {
        LECA_CHECK(threads >= 1 && threads <= 256,
                   "thread count must be in [1, 256], got ", threads);
        LECA_CHECK(!t_inParallelRegion,
                   "setThreadCount from inside a parallel region");
        MutexLock run_lock(_runMutex);
        MutexLock lock(_configMutex);
        if (threads == _threads)
            return;
        stopWorkers();
        _threads = threads;
    }

    void
    run(std::int64_t chunk_count, FunctionRef<void(std::int64_t)> fn)
        LECA_EXCLUDES(_runMutex)
    {
        if (chunk_count <= 0)
            return;
        if (t_inParallelRegion || chunk_count == 1 || threads() <= 1) {
            runSerial(chunk_count, fn);
            return;
        }
        MutexLock run_lock(_runMutex);
        {
            MutexLock lock(_configMutex);
            if (_workers.empty() && _threads > 1)
                startWorkers();
        }
        beginTask(chunk_count, fn);
        claimChunks();
        finishTask();
    }

    /** See poolBarrier() in the header. One chunk per pool thread;
     *  every chunk body blocks in the latch after running fn, so no
     *  thread can claim a second chunk — which forces each of the
     *  @c _threads chunks onto a distinct thread. */
    void
    barrier(FunctionRef<void()> fn) LECA_EXCLUDES(_runMutex)
    {
        if (t_inParallelRegion || threads() <= 1) {
            fn();
            return;
        }
        MutexLock run_lock(_runMutex);
        int participants;
        {
            MutexLock lock(_configMutex);
            if (_workers.empty() && _threads > 1)
                startWorkers();
            participants = _threads;
        }
        Mutex latch_mutex;
        std::condition_variable latch_cv;
        int arrived = 0;
        const auto arrive_and_wait = [&] {
            UniqueLock lock(latch_mutex);
            if (++arrived == participants)
                latch_cv.notify_all();
            while (arrived < participants)
                latch_cv.wait(lock.raw());
        };
        // Named so the FunctionRef passed to beginTask (non-owning)
        // stays valid until finishTask drains the last claimer.
        const auto body = [&](std::int64_t) {
            try {
                fn();
            } catch (...) {
                arrive_and_wait(); // release the others before rethrow
                throw;
            }
            arrive_and_wait();
        };
        beginTask(participants, body);
        claimChunks();
        finishTask();
    }

  private:
    explicit ThreadPool(int threads) : _threads(threads) {}

    void
    runSerial(std::int64_t chunk_count, FunctionRef<void(std::int64_t)> fn)
    {
        const bool was_in_region = t_inParallelRegion;
        t_inParallelRegion = true;
        try {
            for (std::int64_t c = 0; c < chunk_count; ++c)
                fn(c);
        } catch (...) {
            t_inParallelRegion = was_in_region;
            throw;
        }
        t_inParallelRegion = was_in_region;
    }

    // ---- task lifecycle (_runMutex held by the submitting thread) ---

    void
    beginTask(std::int64_t chunk_count, FunctionRef<void(std::int64_t)> fn)
        LECA_EXCLUDES(_taskMutex)
    {
        UniqueLock lock(_taskMutex);
        // Wait out stragglers from the previous task so the fields
        // below are never written while another thread reads them.
        while (_activeClaimers != 0)
            _idle.wait(lock.raw());
        _taskFn = fn;
        _chunkCount = chunk_count;
        _nextChunk.store(0, std::memory_order_relaxed);
        _pendingChunks = chunk_count;
        _error = nullptr;
        ++_generation;
        _activeClaimers = 1; // the submitting thread
        _wake.notify_all();
    }

    /** Claim and run chunks until the current task runs dry. The
     *  caller must be registered in _activeClaimers. _taskFn and
     *  _chunkCount are read without the lock: they are published
     *  before the wake-up that registered this claimer and stay
     *  frozen until _activeClaimers drains back to zero. */
    void
    claimChunks() LECA_EXCLUDES(_taskMutex)
    {
        t_inParallelRegion = true;
        for (;;) {
            const std::int64_t c =
                _nextChunk.fetch_add(1, std::memory_order_relaxed);
            if (c >= _chunkCount)
                break;
            try {
                _taskFn(c);
            } catch (...) {
                MutexLock lock(_taskMutex);
                if (!_error)
                    _error = std::current_exception();
            }
            MutexLock lock(_taskMutex);
            if (--_pendingChunks == 0)
                _done.notify_all();
        }
        t_inParallelRegion = false;
        MutexLock lock(_taskMutex);
        if (--_activeClaimers == 0)
            _idle.notify_all();
    }

    void
    finishTask() LECA_EXCLUDES(_taskMutex)
    {
        UniqueLock lock(_taskMutex);
        while (_pendingChunks != 0)
            _done.wait(lock.raw());
        _taskFn = FunctionRef<void(std::int64_t)>();
        if (_error) {
            std::exception_ptr err = _error;
            _error = nullptr;
            std::rethrow_exception(err);
        }
    }

    // ---- worker management (caller holds _configMutex) --------------

    // leca-analyze: cold — configure-time worker launch
    void
    startWorkers() LECA_REQUIRES(_configMutex) LECA_EXCLUDES(_taskMutex)
    {
        {
            MutexLock lock(_taskMutex);
            _stopping = false;
        }
        _workers.reserve(static_cast<std::size_t>(_threads - 1));
        for (int i = 0; i < _threads - 1; ++i)
            _workers.emplace_back([this] { workerLoop(); });
    }

    void
    stopWorkers() LECA_REQUIRES(_configMutex) LECA_EXCLUDES(_taskMutex)
    {
        {
            MutexLock lock(_taskMutex);
            _stopping = true;
            _wake.notify_all();
        }
        for (auto &worker : _workers)
            worker.join();
        _workers.clear();
    }

    void
    workerLoop() LECA_EXCLUDES(_taskMutex)
    {
        std::uint64_t seen_generation = 0;
        for (;;) {
            {
                UniqueLock lock(_taskMutex);
                while (!_stopping && _generation == seen_generation)
                    _wake.wait(lock.raw());
                if (_stopping)
                    return;
                seen_generation = _generation;
                ++_activeClaimers;
            }
            claimChunks();
        }
    }

    Mutex _runMutex; //!< one task at a time

    Mutex _configMutex;
    int _threads LECA_GUARDED_BY(_configMutex);
    std::vector<std::thread> _workers LECA_GUARDED_BY(_configMutex);

    Mutex _taskMutex;
    std::condition_variable _wake;
    std::condition_variable _done;
    std::condition_variable _idle;
    // _taskFn / _chunkCount are guarded by protocol, not by _taskMutex:
    // written in beginTask only after _activeClaimers drained to zero,
    // read lock-free by registered claimers (see claimChunks).
    FunctionRef<void(std::int64_t)> _taskFn;
    std::int64_t _chunkCount = 0;
    std::atomic<std::int64_t> _nextChunk{0};
    std::int64_t _pendingChunks LECA_GUARDED_BY(_taskMutex) = 0;
    std::int64_t _activeClaimers LECA_GUARDED_BY(_taskMutex) = 0;
    std::uint64_t _generation LECA_GUARDED_BY(_taskMutex) = 0;
    std::exception_ptr _error LECA_GUARDED_BY(_taskMutex) = nullptr;
    bool _stopping LECA_GUARDED_BY(_taskMutex) = false;
};

} // namespace

int
threadCount()
{
    return ThreadPool::instance().threads();
}

// leca-analyze: keep: test hook — the cross-thread bit-identity tests
void
setThreadCount(int threads)
{
    ThreadPool::instance().resize(threads);
}

namespace detail {

void
runChunks(std::int64_t chunk_count, FunctionRef<void(std::int64_t)> fn)
{
    ThreadPool::instance().run(chunk_count, fn);
}

} // namespace detail

void
poolBarrier(FunctionRef<void()> fn)
{
    ThreadPool::instance().barrier(fn);
}

void
parallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
            FunctionRef<void(std::int64_t, std::int64_t)> fn)
{
    const std::int64_t n = end - begin;
    if (n <= 0)
        return;
    LECA_CHECK(grain >= 1, "parallelFor grain must be >= 1, got ", grain);
    detail::runChunks(detail::chunkCount(n, grain), [&](std::int64_t c) {
        const std::int64_t lo = begin + c * grain;
        const std::int64_t hi = lo + grain < end ? lo + grain : end;
        fn(lo, hi);
    });
}

AsyncTask::~AsyncTask()
{
    if (_thread.joinable())
        _thread.join();
}

void
AsyncTask::run(std::function<void()> fn)
{
    LECA_CHECK(!_running, "AsyncTask::run with a task already pending");
    if (_thread.joinable())
        _thread.join();
    _error = nullptr;
    _running = true;
    _thread = std::thread([this, fn = std::move(fn)] {
        // The task body counts as a parallel region: parallelFor calls
        // it makes run serially on this thread, keeping the global pool
        // free for the foreground compute it overlaps with.
        t_inParallelRegion = true;
        try {
            fn();
        } catch (...) {
            _error = std::current_exception();
        }
    });
}

void
AsyncTask::wait()
{
    if (!_running)
        return;
    _thread.join();
    _running = false;
    if (_error) {
        std::exception_ptr err = _error;
        _error = nullptr;
        std::rethrow_exception(err);
    }
}

ServiceThread::~ServiceThread()
{
    if (_thread.joinable())
        _thread.join();
}

void
ServiceThread::start(std::function<void()> fn)
{
    LECA_CHECK(!_running, "ServiceThread::start while already running");
    if (_thread.joinable())
        _thread.join();
    _error = nullptr;
    _running = true;
    // Deliberately NOT marked as a parallel region: service threads are
    // foreground compute owners (the serve dispatcher) and contend for
    // the pool through ThreadPool::run's one-task-at-a-time gate.
    _thread = std::thread([this, fn = std::move(fn)] {
        try {
            fn();
        } catch (...) {
            _error = std::current_exception();
        }
    });
}

void
ServiceThread::join()
{
    if (!_running)
        return;
    _thread.join();
    _running = false;
    if (_error) {
        std::exception_ptr err = _error;
        _error = nullptr;
        std::rethrow_exception(err);
    }
}

} // namespace leca
