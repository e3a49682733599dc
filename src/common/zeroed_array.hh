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
 *
 * residentBytes() reports how many of those pages the run has mapped
 * (mincore), so tests can check that code leaves untouched rows alone.
 */

#ifndef BH_COMMON_ZEROED_ARRAY_HH
#define BH_COMMON_ZEROED_ARRAY_HH

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <limits>
#include <new>
#include <system_error>
#include <utility>
#include <vector>

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

    /**
     * Bytes of the array's pages that are mapped in this process, read
     * by mincore: a page counts once any access faulted it in, a read
     * that mapped the shared zero page included. Observation-only.
     */
    std::size_t
    residentBytes() const
    {
        if (!data)
            return 0;
        auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
        std::vector<unsigned char> mapped((bytes + page - 1) / page);
        if (mincore(data, bytes, mapped.data()) != 0)
            throw std::system_error(errno, std::generic_category(),
                                    "mincore");
        std::size_t pages = 0;
        for (unsigned char m : mapped)
            pages += m & 1u;
        return pages * page;
    }

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
