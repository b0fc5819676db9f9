#include "util/stats.hh"

#include "util/logging.hh"

namespace nscs {

Histogram::Histogram(double lo, double hi, size_t nbins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(nbins)),
      bins_(nbins, 0)
{
    NSCS_ASSERT(hi > lo && nbins > 0,
                "bad histogram range [%f, %f) x %zu", lo, hi, nbins);
}

void
Histogram::add(double x)
{
    ++count_;
    stat_.add(x);
    if (x < lo_) {
        ++underflow_;
    } else if (x >= hi_) {
        ++overflow_;
    } else {
        auto i = static_cast<size_t>((x - lo_) / width_);
        if (i >= bins_.size())
            i = bins_.size() - 1;  // guard FP edge at hi
        ++bins_[i];
    }
}

double
Histogram::quantile(double q) const
{
    if (count_ == 0)
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    auto target = static_cast<uint64_t>(
        q * static_cast<double>(count_ - 1)) + 1;
    uint64_t seen = underflow_;
    if (seen >= target)
        return lo_;
    for (size_t i = 0; i < bins_.size(); ++i) {
        seen += bins_[i];
        if (seen >= target)
            return lo_ + width_ * static_cast<double>(i + 1);
    }
    return stat_.max();
}

JsonValue
statsDocument()
{
    JsonValue doc = JsonValue::object();
    doc.set("format", JsonValue::string("nscs-stats"));
    doc.set("version", JsonValue::integer(1));
    return doc;
}

} // namespace nscs
