#include "apps/rate_source.hh"

#include <bit>

#include "util/logging.hh"

namespace nscs {

RateCodeSource::RateCodeSource(
    std::vector<std::vector<InputSpike>> targets)
    : targets_(std::move(targets)),
      featureWords_((targets_.size() + 63) / 64)
{
}

uint64_t
RateCodeSource::load(uint64_t t0, uint32_t window, size_t lanes,
                     const std::vector<uint64_t> &trains)
{
    const size_t features = targets_.size();
    const size_t words = (window + 63) / 64;
    NSCS_ASSERT(trains.size() == lanes * features * words,
                "%zu train words for %zu lanes x %zu features x %zu",
                trains.size(), lanes, features, words);
    t0_ = t0;
    window_ = window;
    lanes_ = lanes;
    rows_.assign(window * lanes * featureWords_, 0);

    uint64_t injected = 0;
    const uint64_t *train = trains.data();
    for (size_t i = 0; i < lanes; ++i) {
        for (size_t f = 0; f < features; ++f) {
            const uint64_t bit = 1ull << (f % 64);
            for (size_t w = 0; w < words; ++w, ++train) {
                injected += static_cast<uint64_t>(
                    std::popcount(*train)) * targets_[f].size();
                for (uint64_t m = *train; m; m &= m - 1) {
                    const size_t off =
                        w * 64 + static_cast<size_t>(std::countr_zero(m));
                    rows_[(off * lanes + i) * featureWords_ + f / 64] |=
                        bit;
                }
            }
        }
    }
    return injected;
}

void
RateCodeSource::spikesFor(uint64_t t, std::vector<InputSpike> &out)
{
    if (t < t0_ || t - t0_ >= window_)
        return;
    const uint64_t *row =
        rows_.data() + (t - t0_) * lanes_ * featureWords_;
    for (size_t i = 0; i < lanes_; ++i) {
        for (size_t fw = 0; fw < featureWords_; ++fw, ++row) {
            for (uint64_t m = *row; m; m &= m - 1) {
                const size_t f =
                    fw * 64 + static_cast<size_t>(std::countr_zero(m));
                for (InputSpike s : targets_[f]) {
                    s.instance = static_cast<uint32_t>(i);
                    out.push_back(s);
                }
            }
        }
    }
}

} // namespace nscs
