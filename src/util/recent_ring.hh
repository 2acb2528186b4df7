/**
 * @file
 * Fixed-capacity window over the N most recent values.
 *
 * The tFAW bookkeeping in Rank and in the TimingChecker's shadow
 * needs the last four ACT times of a rank. A std::deque allocates a
 * new block every few dozen pushes even at a constant size of four,
 * which puts a heap allocation on the per-command path; this window
 * keeps the values inline and never allocates.
 */

#ifndef MEMSEC_UTIL_RECENT_RING_HH
#define MEMSEC_UTIL_RECENT_RING_HH

#include <array>
#include <cstddef>

namespace memsec {

/** The N most recent values pushed, indexed oldest first. */
template <typename T, size_t N>
class RecentRing
{
    static_assert(N > 0, "RecentRing needs room for one value");

  public:
    using value_type = T;

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Append `v`; when full, the oldest value drops out. */
    void
    push(const T &v)
    {
        vals_[(head_ + size_) % N] = v;
        if (size_ < N)
            ++size_;
        else
            head_ = (head_ + 1) % N;
    }

    /** i-th value, 0 = oldest; i < size(). */
    const T &operator[](size_t i) const { return vals_[(head_ + i) % N]; }
    const T &front() const { return (*this)[0]; }
    const T &back() const { return (*this)[size_ - 1]; }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    std::array<T, N> vals_{};
    size_t head_ = 0;
    size_t size_ = 0;
};

} // namespace memsec

#endif // MEMSEC_UTIL_RECENT_RING_HH
