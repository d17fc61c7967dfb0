#include "lut.hh"

#include <algorithm>
#include <cmath>

#include "util/check.hh"

namespace leca {

Lut1d::Lut1d(double lo, double hi, std::vector<double> values)
    : _lo(lo), _hi(hi), _values(std::move(values))
{
    LECA_CHECK(_values.size() >= 2 && hi > lo, "bad LUT data");
}

double
Lut1d::operator()(double x) const
{
    LECA_CHECK(!_values.empty(), "lookup on empty LUT");
    const int n = static_cast<int>(_values.size());
    const double t = (x - _lo) / (_hi - _lo) * (n - 1);
    if (t <= 0.0)
        return _values.front();
    if (t >= n - 1)
        return _values.back();
    const int i = static_cast<int>(t);
    const double f = t - i;
    return _values[static_cast<std::size_t>(i)] * (1.0 - f)
           + _values[static_cast<std::size_t>(i) + 1] * f;
}

Lut2d::Lut2d(double x_lo, double x_hi, int nx, double y_lo, double y_hi,
             int ny, const std::function<double(double, double)> &fn)
    : _xLo(x_lo), _xHi(x_hi), _yLo(y_lo), _yHi(y_hi), _nx(nx), _ny(ny)
{
    LECA_CHECK(nx >= 2 && ny >= 2 && x_hi > x_lo && y_hi > y_lo,
                "bad 2-D LUT domain");
    _values.resize(static_cast<std::size_t>(nx) * ny);
    for (int j = 0; j < ny; ++j) {
        const double y = y_lo + (y_hi - y_lo) * j / (ny - 1);
        for (int i = 0; i < nx; ++i) {
            const double x = x_lo + (x_hi - x_lo) * i / (nx - 1);
            _values[static_cast<std::size_t>(j) * nx + i] = fn(x, y);
        }
    }
}

double
Lut2d::operator()(double x, double y) const
{
    LECA_CHECK(!_values.empty(), "lookup on empty 2-D LUT");
    double tx = (x - _xLo) / (_xHi - _xLo) * (_nx - 1);
    double ty = (y - _yLo) / (_yHi - _yLo) * (_ny - 1);
    tx = std::clamp(tx, 0.0, static_cast<double>(_nx - 1));
    ty = std::clamp(ty, 0.0, static_cast<double>(_ny - 1));
    const int i0 = std::min(static_cast<int>(tx), _nx - 2);
    const int j0 = std::min(static_cast<int>(ty), _ny - 2);
    const double fx = tx - i0, fy = ty - j0;
    auto at = [&](int i, int j) {
        return _values[static_cast<std::size_t>(j) * _nx + i];
    };
    return at(i0, j0) * (1 - fx) * (1 - fy)
           + at(i0 + 1, j0) * fx * (1 - fy)
           + at(i0, j0 + 1) * (1 - fx) * fy
           + at(i0 + 1, j0 + 1) * fx * fy;
}

} // namespace leca
