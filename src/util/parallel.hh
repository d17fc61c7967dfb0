/**
 * @file
 * Deterministic parallel execution context for the whole simulator.
 *
 * A single lazily-initialized global thread pool (sized from the
 * LECA_THREADS environment variable, default hardware_concurrency,
 * 1 = fully serial) executes every data-parallel loop in the
 * tensor/nn/compression/sensor stack through one primitive:
 *
 *   parallelFor(begin, end, grain, fn)     — disjoint-write loops
 *
 * Determinism policy (see DESIGN.md): results are bit-identical for
 * every thread count. parallelFor guarantees this as long as distinct
 * indices write distinct locations, because the work decomposition
 * (chunking by @p grain) never depends on how many threads execute it.
 * A reduction writes one partial per fixed chunk and folds them on the
 * calling thread in ascending chunk order.
 *
 * Stochastic loops must not share one Rng across indices — pre-split
 * child streams with Rng::split() (util/rng.hh) before the parallel
 * region and give each index its own stream.
 *
 * Raw std::thread / std::async are forbidden outside this file
 * (enforced by tools/leca_lint.py rule `concurrency-primitive`); all
 * concurrency flows through this one audited primitive.
 *
 * Allocation note: parallelFor / runChunks take the
 * loop body as a leca::FunctionRef (util/function_ref.hh), not a
 * std::function — the callable is only invoked synchronously, so the
 * non-owning reference is safe and the hot path stays heap-free (a
 * std::function here allocated on every kernel call; asserted
 * allocation-free by the DenyAllocScope tests, DESIGN.md §11).
 */

#ifndef LECA_UTIL_PARALLEL_HH
#define LECA_UTIL_PARALLEL_HH

#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/function_ref.hh"

namespace leca {

/** Number of threads the global pool runs with (>= 1; 1 = serial). */
int threadCount();

/**
 * Reconfigure the global pool to @p threads workers (>= 1), overriding
 * LECA_THREADS. Joins the old workers first; not safe to call from
 * inside a parallel region. Intended for tests and harness flags.
 */
void setThreadCount(int threads);

namespace detail {

/**
 * Execute fn(chunk) for every chunk index in [0, chunk_count) on the
 * pool. Chunks are claimed dynamically but the mapping chunk -> work
 * is fixed by the caller, so scheduling cannot affect results. The
 * first exception thrown by any chunk is rethrown on the caller after
 * all chunks finish. Nested calls from inside a worker run serially.
 */
void runChunks(std::int64_t chunk_count,
               FunctionRef<void(std::int64_t)> fn);

/** Number of grain-sized chunks covering n iterations. */
inline std::int64_t
chunkCount(std::int64_t n, std::int64_t grain)
{
    return grain > 0 ? (n + grain - 1) / grain : 0;
}

} // namespace detail

/**
 * Run fn(chunk_begin, chunk_end) over [begin, end) split into chunks of
 * at most @p grain iterations. The decomposition depends only on
 * @p grain — never on the thread count — so loops whose indices write
 * disjoint locations produce bit-identical results at every
 * LECA_THREADS setting. fn must not touch shared mutable state.
 */
void parallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
                 FunctionRef<void(std::int64_t, std::int64_t)> fn);

/**
 * Run @p fn once on the calling thread AND once on every pool worker,
 * with a barrier: no participant returns from fn's chunk until every
 * participant has finished fn. The barrier is what makes participation
 * deterministic — chunks are normally claimed dynamically, so an
 * ordinary parallelFor cannot guarantee that any particular worker ran
 * (a sleeping worker may wake only after the others drained the loop).
 *
 * Use this to pre-warm per-thread state before entering a region that
 * must not allocate: e.g. growing every worker's thread-local Arena to
 * a workload's high-water mark so that a worker which slept through
 * the warm-up iterations cannot heap-allocate (grow its cold arena)
 * when it claims its first chunk inside a DenyAllocScope region
 * (DESIGN.md §11, tier 3). Called from inside a parallel region or
 * with a single-thread pool, fn runs once on the caller only.
 *
 * fn must be safe to run concurrently on all threads. Exceptions still
 * release the barrier (no deadlock); the first one is rethrown on the
 * caller.
 */
void poolBarrier(FunctionRef<void()> fn);

/**
 * A single background task that overlaps with work on the calling
 * thread (the batch-prefetch primitive, see src/data/trainloop.hh).
 *
 * run(fn) launches fn on a dedicated thread; wait() joins it and
 * rethrows any exception fn raised. The task body is marked as being
 * inside a parallel region, so parallelFor calls it makes degrade to
 * serial execution instead of contending with the caller for the
 * global pool — the pool stays dedicated to the foreground compute.
 *
 * The join in wait()/the destructor is the only synchronization point:
 * results produced by fn must not be read before wait() returns.
 */
class AsyncTask
{
  public:
    AsyncTask() = default;
    ~AsyncTask(); //!< joins a pending task, discarding its exception

    AsyncTask(const AsyncTask &) = delete;
    AsyncTask &operator=(const AsyncTask &) = delete;

    /** Launch fn in the background. A task must not already be pending. */
    void run(std::function<void()> fn);

    /** Join the task and rethrow the exception it raised, if any. */
    void wait();

  private:
    std::thread _thread;
    std::exception_ptr _error;
    bool _running = false;
};

/**
 * A long-running owned runtime thread (the serve-runtime primitive,
 * see src/serve/). Unlike AsyncTask, the body is NOT marked as a
 * parallel region: parallelFor calls it makes dispatch onto the global
 * pool through the normal one-task-at-a-time gate, so a service thread
 * (e.g. the batching dispatcher in leca::serve) gets full pool
 * parallelism for its compute.
 *
 * Ownership rules: the thread is always joined — by join() or by the
 * destructor — never detached. Holders are responsible for making the
 * body return (close a queue, set a stop flag) before destruction,
 * otherwise the join blocks. join() rethrows the first exception the
 * body raised; the destructor joins and discards it.
 */
class ServiceThread
{
  public:
    ServiceThread() = default;
    ~ServiceThread(); //!< joins a running thread, discarding its exception

    ServiceThread(const ServiceThread &) = delete;
    ServiceThread &operator=(const ServiceThread &) = delete;

    /** Launch fn. The thread must not already be running. */
    void start(std::function<void()> fn);

    /** Join the thread and rethrow the exception it raised, if any. */
    void join();

  private:
    std::thread _thread;
    std::exception_ptr _error;
    bool _running = false;
};

} // namespace leca

#endif // LECA_UTIL_PARALLEL_HH
