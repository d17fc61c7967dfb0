#include "dct.hh"

#include <cmath>

namespace leca {

Dct8::Dct8()
{
    for (int k = 0; k < 8; ++k) {
        const double scale = k == 0 ? std::sqrt(1.0 / 8.0)
                                    : std::sqrt(2.0 / 8.0);
        for (int n = 0; n < 8; ++n)
            _c[k][n] = scale * std::cos(M_PI * (2.0 * n + 1.0) * k / 16.0);
    }
}

void
Dct8::forward(const float *block, float *coeffs) const
{
    // Separable: rows then columns.
    double tmp[64];
    for (int y = 0; y < 8; ++y)
        for (int k = 0; k < 8; ++k) {
            double acc = 0.0;
            for (int n = 0; n < 8; ++n)
                acc += _c[k][n] * block[y * 8 + n];
            tmp[y * 8 + k] = acc;
        }
    for (int x = 0; x < 8; ++x)
        for (int k = 0; k < 8; ++k) {
            double acc = 0.0;
            for (int n = 0; n < 8; ++n)
                acc += _c[k][n] * tmp[n * 8 + x];
            coeffs[k * 8 + x] = static_cast<float>(acc);
        }
}

void
Dct8::inverse(const float *coeffs, float *block) const
{
    double tmp[64];
    for (int x = 0; x < 8; ++x)
        for (int n = 0; n < 8; ++n) {
            double acc = 0.0;
            for (int k = 0; k < 8; ++k)
                acc += _c[k][n] * coeffs[k * 8 + x];
            tmp[n * 8 + x] = acc;
        }
    for (int y = 0; y < 8; ++y)
        for (int n = 0; n < 8; ++n) {
            double acc = 0.0;
            for (int k = 0; k < 8; ++k)
                acc += _c[k][n] * tmp[y * 8 + k];
            block[y * 8 + n] = static_cast<float>(acc);
        }
}

} // namespace leca
