#include "quantize.hh"

#include <algorithm>
#include <cmath>

#include "util/check.hh"
#include "util/numeric.hh"

namespace leca {

int
QBits::levels() const
{
    if (isTernary())
        return 3;
    LECA_CHECK(_bits == std::floor(_bits) && _bits >= 1.0 && _bits <= 16.0,
               "unsupported bit depth ", _bits);
    return 1 << truncToInt(_bits);
}

int
quantizeCode(float x, float lo, float hi, int levels)
{
    LECA_CHECK(levels >= 2 && hi > lo, "bad quantizer configuration: levels=",
               levels, " range [", lo, ", ", hi, ")");
    const float clamped = std::clamp(x, lo, hi);
    const float t = (clamped - lo) / (hi - lo);
    const int code = roundToInt(t * static_cast<float>(levels - 1));
    return std::clamp(code, 0, levels - 1);
}

void
quantizeCodes(const float *x, std::size_t n, float lo, float hi, int levels,
              std::uint8_t *codes)
{
    LECA_CHECK(levels <= 256, "byte codes hold at most 256 levels, got ",
               levels);
    for (std::size_t i = 0; i < n; ++i)
        codes[i] = static_cast<std::uint8_t>(quantizeCode(x[i], lo, hi,
                                                          levels));
}

float
dequantizeCode(int code, float lo, float hi, int levels)
{
    return lo + static_cast<float>(code) * (hi - lo)
           / static_cast<float>(levels - 1);
}

float
quantizeUniform(float x, float lo, float hi, int levels)
{
    return dequantizeCode(quantizeCode(x, lo, hi, levels), lo, hi, levels);
}

} // namespace leca
