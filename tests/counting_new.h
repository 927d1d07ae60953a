/**
 * @file
 * Allocation counting for the allocation-free hot-path tests.
 *
 * Replaces the global allocation functions with ones that forward to
 * malloc/free and bump g_allocation_count while g_count_allocations
 * is set. Include it from exactly one source file of a test
 * executable: each test file is its own executable (see
 * tests/CMakeLists.txt), so the replacement stays confined to it.
 */

#ifndef CARBONX_TESTS_COUNTING_NEW_H
#define CARBONX_TESTS_COUNTING_NEW_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace
{
std::atomic<std::uint64_t> g_allocation_count{0};
std::atomic<bool> g_count_allocations{false};

void
noteAllocation()
{
    if (g_count_allocations.load(std::memory_order_relaxed))
        g_allocation_count.fetch_add(1, std::memory_order_relaxed);
}

void *
countedAlloc(std::size_t size)
{
    noteAllocation();
    void *p = std::malloc(size ? size : 1);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
countedAlignedAlloc(std::size_t size, std::size_t align)
{
    noteAllocation();
    if (align < sizeof(void *))
        align = sizeof(void *);
    void *p = nullptr;
    if (posix_memalign(&p, align, size ? size : 1) != 0)
        throw std::bad_alloc();
    return p;
}
} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}
void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    noteAllocation();
    return std::malloc(size ? size : 1);
}
void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    noteAllocation();
    return std::malloc(size ? size : 1);
}
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void
operator delete(void *ptr) noexcept
{
    std::free(ptr);
}
void
operator delete[](void *ptr) noexcept
{
    std::free(ptr);
}
void
operator delete(void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}
void
operator delete[](void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}
void
operator delete(void *ptr, const std::nothrow_t &) noexcept
{
    std::free(ptr);
}
void
operator delete[](void *ptr, const std::nothrow_t &) noexcept
{
    std::free(ptr);
}
void
operator delete(void *ptr, std::align_val_t) noexcept
{
    std::free(ptr);
}
void
operator delete[](void *ptr, std::align_val_t) noexcept
{
    std::free(ptr);
}
void
operator delete(void *ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}
void
operator delete[](void *ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}

#endif // CARBONX_TESTS_COUNTING_NEW_H
