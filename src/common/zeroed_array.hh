/**
 * @file
 * A fixed-size array that starts at zero without touching its memory.
 *
 * It comes from calloc, which leaves fresh pages untouched because they
 * read as zero. Large per-row tables (the hammer observer's counters,
 * 12 MB per channel at the paper's 64K rows x 16 banks) then cost no
 * page faults when a system is built; each page faults in when the run
 * first touches one of its rows. std::vector would write every zero up
 * front, and whether those writes fault depends on whether the heap
 * kept the previous system's pages.
 */

#ifndef BH_COMMON_ZEROED_ARRAY_HH
#define BH_COMMON_ZEROED_ARRAY_HH

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>

namespace bh
{

/** `n` zero-initialized elements of a trivial type `T`. */
template <typename T>
class ZeroedArray
{
  public:
    explicit ZeroedArray(std::size_t n)
        : data(static_cast<T *>(std::calloc(n, sizeof(T))))
    {
        if (n > 0 && !data)
            throw std::bad_alloc();
    }

    T &operator[](std::size_t i) { return data.get()[i]; }
    const T &operator[](std::size_t i) const { return data.get()[i]; }

    /** Pointer to element `i` (for std::fill_n over a row range). */
    T *from(std::size_t i) { return data.get() + i; }

  private:
    struct Free
    {
        void operator()(T *p) const { std::free(p); }
    };
    std::unique_ptr<T, Free> data;
};

} // namespace bh

#endif // BH_COMMON_ZEROED_ARRAY_HH
