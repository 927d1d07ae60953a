#include "parallel.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "common/counters.h"
#include "common/logging.h"

namespace carbonx
{

namespace
{

/** The CLI/--threads override; 0 means "no override". */
std::atomic<size_t> g_thread_override{0};

/**
 * True on any thread currently executing inside a parallelFor — both
 * pool workers and the calling thread while it participates. Nested
 * parallelFor calls check this and run inline, which both avoids
 * self-deadlock on the job lock and keeps nested sweeps deterministic.
 */
thread_local bool t_in_parallel_region = false;

size_t
envThreads()
{
    static const size_t parsed = [] {
        const char *env = std::getenv("CARBONX_THREADS");
        if (env == nullptr || *env == '\0')
            return size_t{0};
        char *tail = nullptr;
        const unsigned long value = std::strtoul(env, &tail, 10);
        if (tail == env || *tail != '\0') {
            warn(std::string("ignoring non-numeric CARBONX_THREADS='") +
                 env + "'");
            return size_t{0};
        }
        return static_cast<size_t>(value);
    }();
    return parsed;
}

} // namespace

size_t
hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<size_t>(n);
}

void
setThreadCount(size_t n)
{
    g_thread_override.store(n, std::memory_order_relaxed);
}

size_t
threadCount()
{
    const size_t override = g_thread_override.load(std::memory_order_relaxed);
    if (override > 0)
        return override;
    const size_t env = envThreads();
    if (env > 0)
        return env;
    return hardwareThreads();
}

ThreadPool &
ThreadPool::instance()
{
    // Leaked so parallelFor from static destructors never joins a
    // dead pool (mirrors the SpanTracer lifetime trick).
    static ThreadPool *pool = new ThreadPool();
    return *pool;
}

ThreadPool::~ThreadPool()
{
    std::unique_lock<std::mutex> lock(state_mutex_);
    stopWorkersLocked(lock);
}

size_t
ThreadPool::workerThreads() const
{
    const std::lock_guard<std::mutex> lock(state_mutex_);
    return workers_.size();
}

void
ThreadPool::stopWorkersLocked(std::unique_lock<std::mutex> &lock)
{
    if (workers_.empty())
        return;
    stopping_ = true;
    cv_start_.notify_all();
    std::vector<std::thread> joining = std::move(workers_);
    workers_.clear();
    lock.unlock();
    for (std::thread &t : joining)
        t.join();
    lock.lock();
    stopping_ = false;
}

void
ThreadPool::ensureWorkersLocked(size_t want,
                                std::unique_lock<std::mutex> &lock)
{
    if (workers_.size() == want)
        return;
    stopWorkersLocked(lock);
    workers_.reserve(want);
    for (size_t i = 0; i < want; ++i)
        workers_.emplace_back([this, i] { workerMain(i + 1); });
}

void
ThreadPool::workChunks(size_t worker_id) noexcept
{
    // Dispatch telemetry, flushed once per worker per job so the
    // per-chunk loop stays a single fetch_add. "Stolen" counts chunks
    // a pool worker claimed instead of the coordinating caller — the
    // dynamic-chunking analogue of work stealing.
    static Counter &c_chunks = counter("pool.chunks");
    static Counter &c_stolen = counter("pool.chunks_stolen");
    uint64_t chunks_taken = 0;
    const auto flush_counts = [&] {
        if (chunks_taken == 0)
            return;
        c_chunks.increment(chunks_taken);
        if (worker_id > 0)
            c_stolen.increment(chunks_taken);
    };
    const std::function<void(size_t, size_t)> &fn = *body_;
    for (;;) {
        const size_t start = next_.fetch_add(chunk_,
                                             std::memory_order_relaxed);
        if (start >= end_) {
            flush_counts();
            return;
        }
        ++chunks_taken;
        const size_t stop = std::min(start + chunk_, end_);
        try {
            for (size_t i = start; i < stop; ++i)
                fn(i, worker_id);
        } catch (...) {
            {
                const std::lock_guard<std::mutex> lock(state_mutex_);
                if (!error_)
                    error_ = std::current_exception();
                // Cancel undispatched chunks; in-flight ones drain.
                next_.store(end_, std::memory_order_relaxed);
            }
            flush_counts();
            return;
        }
    }
}

void
ThreadPool::workerMain(size_t worker_id)
{
    // Wall time a live worker spends parked between jobs: the gap
    // between a sweep's aggregate throughput and per-thread
    // throughput is exactly this idle share.
    static Counter &c_idle_us = counter("pool.idle_us");
    t_in_parallel_region = true;
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(state_mutex_);
    for (;;) {
        const auto wait_start = std::chrono::steady_clock::now();
        cv_start_.wait(lock, [&] {
            return stopping_ || generation_ != seen;
        });
        c_idle_us.increment(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - wait_start)
                .count()));
        if (stopping_)
            return;
        seen = generation_;
        lock.unlock();
        workChunks(worker_id);
        lock.lock();
        if (--active_workers_ == 0)
            cv_done_.notify_all();
    }
}

void
ThreadPool::run(size_t begin, size_t end, size_t chunk,
                const std::function<void(size_t, size_t)> &fn)
{
    if (begin >= end)
        return;
    chunk = std::max<size_t>(chunk, 1);
    const size_t span = end - begin;
    const size_t threads = threadCount();

    static Counter &c_jobs = counter("pool.jobs");
    static Counter &c_jobs_inline = counter("pool.jobs_inline");
    static Counter &c_tasks = counter("pool.tasks");
    c_jobs.increment();
    c_tasks.increment(span);

    // Inline paths: single-threaded runs, ranges one chunk can cover,
    // and nested calls from inside another parallelFor body.
    if (threads <= 1 || span <= chunk || t_in_parallel_region) {
        c_jobs_inline.increment();
        const bool was_in_region = t_in_parallel_region;
        t_in_parallel_region = true;
        try {
            for (size_t i = begin; i < end; ++i)
                fn(i, 0);
        } catch (...) {
            t_in_parallel_region = was_in_region;
            throw;
        }
        t_in_parallel_region = was_in_region;
        return;
    }

    const std::lock_guard<std::mutex> job_lock(job_mutex_);
    {
        std::unique_lock<std::mutex> lock(state_mutex_);
        ensureWorkersLocked(threads - 1, lock);
        body_ = &fn;
        next_.store(begin, std::memory_order_relaxed);
        end_ = end;
        chunk_ = chunk;
        error_ = nullptr;
        active_workers_ = workers_.size();
        ++generation_;
    }
    cv_start_.notify_all();

    t_in_parallel_region = true;
    workChunks(0);
    t_in_parallel_region = false;

    std::unique_lock<std::mutex> lock(state_mutex_);
    cv_done_.wait(lock, [&] { return active_workers_ == 0; });
    body_ = nullptr;
    if (error_) {
        std::exception_ptr error = error_;
        error_ = nullptr;
        lock.unlock();
        std::rethrow_exception(error);
    }
}

void
parallelFor(size_t begin, size_t end, size_t chunk,
            const std::function<void(size_t, size_t)> &fn)
{
    ThreadPool::instance().run(begin, end, chunk, fn);
}

void
parallelFor(size_t begin, size_t end, size_t chunk,
            const std::function<void(size_t)> &fn)
{
    ThreadPool::instance().run(begin, end, chunk,
                               [&fn](size_t i, size_t) { fn(i); });
}

} // namespace carbonx
