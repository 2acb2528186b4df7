#include "cpu/trace.hh"

#include <algorithm>
#include <cmath>

#include "leakage/secret.hh"
#include "util/bitops.hh"
#include "util/logging.hh"
#include "util/serialize.hh"

namespace memsec::cpu {

SyntheticTraceGenerator::SyntheticTraceGenerator(
    const WorkloadProfile &profile, uint64_t seed)
    : profile_(profile), rng_(seed ^ 0xABCD1234FEED5678ull)
{
    fatal_if(profile.memRatio <= 0.0 || profile.memRatio > 1.0,
             "memRatio must be in (0,1], got {}", profile.memRatio);
    fatal_if(profile.footprintLines == 0, "footprint must be nonzero");
    if (profile.modWindowCycles > 0) {
        fatal_if(profile.modOffFactor <= 0.0 ||
                     profile.modOffFactor > 1.0,
                 "modOffFactor must be in (0,1], got {}",
                 profile.modOffFactor);
        // A pre-encoded symbol frame (leak.code.*) outranks the raw
        // seed-driven secret; both drive the same keying loop below.
        modSecret_ = profile.modSymbols.empty()
                         ? leakage::secretBits(profile.modSecretSeed,
                                               profile.modSecretBits)
                         : profile.modSymbols;
    }
    const unsigned streams = std::max(1u, profile.numStreams);
    // Start streams at seed-dependent offsets: co-scheduled copies of
    // one benchmark run different phases, so their streams must not
    // collide bank-for-bank.
    for (unsigned s = 0; s < streams; ++s)
        streamPos_.push_back(rng_.below(profile.footprintLines));
}

Addr
SyntheticTraceGenerator::pickLine()
{
    // Each `%` of a power of two is taken as a mask (fastMod): the
    // same value, so the same stream.
    const uint64_t fp = profile_.footprintLines;

    if (rng_.chance(profile_.reuseFraction)) {
        // Temporal reuse of a recently touched line.
        return recent_[rng_.next() & (kRecentLines - 1)];
    }

    uint64_t line;
    if (rng_.chance(profile_.streamFraction)) {
        const size_t s = fastMod(streamRr_++, streamPos_.size());
        streamPos_[s] = fastMod(streamPos_[s] + profile_.strideLines, fp);
        line = streamPos_[s];
    } else {
        line = fastMod(rng_.next(), fp);
    }
    recent_[recentIdx_++ & (kRecentLines - 1)] = line * kLineBytes;
    return line * kLineBytes;
}

double
SyntheticTraceGenerator::nextRatio()
{
    double ratio = profile_.memRatio;
    if (!modSecret_.empty()) {
        // Covert-channel sender: key intensity on the secret bit
        // governing the current modulation window. The window index
        // comes from the owning core's observeCycle() feed, so the
        // waveform is locked to simulated time rather than to record
        // count — queueing delays cannot stretch a bit.
        const size_t w = static_cast<size_t>(
            memCycle_ / profile_.modWindowCycles);
        if (modSecret_[w % modSecret_.size()] == 0)
            ratio *= profile_.modOffFactor;
        ratio = std::min(0.95, std::max(1e-6, ratio));
    } else if (profile_.phaseLength > 0) {
        if (phaseLeft_ == 0) {
            busyPhase_ = !busyPhase_;
            phaseLeft_ = 1 + rng_.geometric(
                             1.0 / static_cast<double>(
                                       profile_.phaseLength));
        }
        --phaseLeft_;
        ratio *= busyPhase_ ? profile_.phaseHighFactor
                            : profile_.phaseLowFactor;
        ratio = std::min(0.95, std::max(1e-6, ratio));
    }
    return ratio;
}

void
SyntheticTraceGenerator::drawAccess(TraceRecord &rec)
{
    rec.isStore = rng_.chance(profile_.storeFraction);
    rec.addr = pickLine();
}

TraceRecord
SyntheticTraceGenerator::next()
{
    const double ratio = nextRatio();
    TraceRecord rec;
    // rng_.geometric(ratio), with the logarithm of the failure
    // probability kept across records of one ratio.
    if (ratio < 1.0) {
        if (ratio != gapRatio_) {
            gapRatio_ = ratio;
            gapLogFail_ = std::log(1.0 - ratio);
        }
        rec.gap = static_cast<uint32_t>(std::min<uint64_t>(
            rng_.geometricLog(gapLogFail_), 1u << 20));
    }
    drawAccess(rec);
    return rec;
}

TraceRecord
SyntheticTraceGenerator::nextUntimed()
{
    rng_.skipGeometric(nextRatio());
    TraceRecord rec;
    drawAccess(rec);
    return rec;
}

template <class Self, class Ar>
void
SyntheticTraceGenerator::transfer(Self &self, Ar &a)
{
    a.section("synthtrace");
    a.nested(self.rng_);
    a.fixed(self.streamPos_, "trace stream count mismatch",
            [&](auto &p) { a.u64(p); });
    a.u32(self.streamRr_);
    a.fixed(self.recent_, "trace reuse-ring size mismatch",
            [&](auto &line) { a.u64(line); });
    a.u64(self.recentIdx_);
    a.flag(self.busyPhase_);
    a.u64(self.phaseLeft_);
    a.u64(self.memCycle_);
}

void
SyntheticTraceGenerator::saveState(Serializer &s) const
{
    transfer(*this, s);
}

void
SyntheticTraceGenerator::restoreState(Deserializer &d)
{
    transfer(*this, d);
}

} // namespace memsec::cpu
