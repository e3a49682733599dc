/**
 * @file
 * A fixed-size array that starts at zero without touching its memory.
 *
 * Its pages come straight from an anonymous private mapping, which the
 * kernel hands out untouched and reading as zero. Large per-row tables
 * (the hammer observer's counters, 12 MB per channel at the paper's
 * 64K rows x 16 banks) then cost no page faults when a system is built;
 * each page faults in when the run first touches one of its rows, and
 * the pages go back to the kernel when the array dies. calloc would do
 * the same only while glibc serves the request by mmap: once a freed
 * table raises glibc's mmap threshold, the next calloc recycles heap
 * pages that are already resident, and the same run reads a different
 * peak RSS depending on what ran before it.
 */

#ifndef BH_COMMON_ZEROED_ARRAY_HH
#define BH_COMMON_ZEROED_ARRAY_HH

#include <sys/mman.h>

#include <cstddef>
#include <limits>
#include <new>
#include <utility>

namespace bh
{

/** `n` zero-initialized elements of a trivial type `T`. */
template <typename T>
class ZeroedArray
{
  public:
    explicit ZeroedArray(std::size_t n)
    {
        if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
            throw std::bad_alloc();
        bytes = n * sizeof(T);
        if (bytes == 0)
            return;
        void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        data = static_cast<T *>(p);
    }

    ~ZeroedArray()
    {
        if (data)
            munmap(data, bytes);
    }

    ZeroedArray(const ZeroedArray &) = delete;
    ZeroedArray &operator=(const ZeroedArray &) = delete;

    T &operator[](std::size_t i) { return data[i]; }
    const T &operator[](std::size_t i) const { return data[i]; }

    /** Pointer to element `i` (for std::fill_n over a row range). */
    T *from(std::size_t i) { return data + i; }

    /** Exchange the pages of two arrays (a table grown by rehash). */
    void
    swap(ZeroedArray &other) noexcept
    {
        std::swap(data, other.data);
        std::swap(bytes, other.bytes);
    }

  private:
    T *data = nullptr;
    std::size_t bytes = 0;
};

} // namespace bh

#endif // BH_COMMON_ZEROED_ARRAY_HH
