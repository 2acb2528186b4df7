#include "cpu/prefetcher.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/serialize.hh"

namespace memsec::cpu {

SandboxPrefetcher::SandboxPrefetcher(const Params &params)
    : params_(params)
{
    fatal_if(params_.candidateOffsets.empty(),
             "prefetcher needs candidate offsets");
    scores_.assign(params_.candidateOffsets.size(), 0);
    recentMisses_.assign(64, ~0ull);
}

std::vector<Addr>
SandboxPrefetcher::onMiss(Addr addr)
{
    const Addr line = addr / kLineBytes;

    // Sandbox evaluation: would candidate offset o have predicted
    // this miss from one of the recent misses?
    for (size_t c = 0; c < params_.candidateOffsets.size(); ++c) {
        const int off = params_.candidateOffsets[c];
        const Addr predictedFrom =
            line - static_cast<Addr>(static_cast<int64_t>(off));
        for (Addr prev : recentMisses_) {
            if (prev == predictedFrom) {
                ++scores_[c];
                break;
            }
        }
    }
    recentMisses_[recentIdx_++ % recentMisses_.size()] = line;

    if (++evalCount_ >= params_.evalPeriod) {
        evalCount_ = 0;
        std::vector<std::pair<unsigned, int>> ranked;
        for (size_t c = 0; c < scores_.size(); ++c) {
            if (scores_[c] >= params_.scoreThreshold)
                ranked.emplace_back(scores_[c],
                                    params_.candidateOffsets[c]);
        }
        std::sort(ranked.begin(), ranked.end(),
                  [](const auto &a, const auto &b) {
                      return a.first > b.first;
                  });
        active_.clear();
        for (size_t i = 0;
             i < ranked.size() && i < params_.degree; ++i)
            active_.push_back(ranked[i].second);
        std::fill(scores_.begin(), scores_.end(), 0u);
    }

    std::vector<Addr> out;
    out.reserve(active_.size());
    for (int off : active_) {
        const int64_t target =
            static_cast<int64_t>(line) + off;
        if (target < 0)
            continue;
        out.push_back(static_cast<Addr>(target) * kLineBytes);
        issued_.inc();
    }
    return out;
}

template <class Self, class Ar>
void
SandboxPrefetcher::transfer(Self &self, Ar &a)
{
    a.section("prefetcher");
    a.fixed(self.scores_, "prefetcher score count mismatch",
            [&](auto &v) { a.u32(v); });
    a.fixed(self.recentMisses_, "prefetcher miss-ring size mismatch",
            [&](auto &line) { a.u64(line); });
    a.u64(self.recentIdx_);
    a.u32(self.evalCount_);
    a.seq(self.active_, [&](auto &off) { a.i64(off); });
    a.nested(self.issued_);
}

template void SandboxPrefetcher::transfer(const SandboxPrefetcher &,
                                          Serializer &);
template void SandboxPrefetcher::transfer(SandboxPrefetcher &,
                                          Deserializer &);

} // namespace memsec::cpu
