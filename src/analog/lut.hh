/**
 * @file
 * Uniform-grid lookup tables with linear interpolation.
 *
 * The paper's hardware-aware training inserts "stage-wise, fine-grained
 * look-up-tables" extracted from SPICE into the forward path
 * (Sec. 4.4, Sec. 5.3). Here LUTs are extracted from the behavioural
 * circuit models via Monte-Carlo sampling (see mismatch.hh) and play
 * the same role.
 */

#ifndef LECA_ANALOG_LUT_HH
#define LECA_ANALOG_LUT_HH

#include <functional>
#include <vector>

namespace leca {

/** 1-D tabulated function over [lo, hi] with linear interpolation. */
class Lut1d
{
  public:
    Lut1d() = default;

    /** Construct directly from sampled values. */
    Lut1d(double lo, double hi, std::vector<double> values);

    /** Interpolated lookup; clamps outside [lo, hi]. */
    double operator()(double x) const;

    double lo() const { return _lo; }
    double hi() const { return _hi; }
    int samples() const { return static_cast<int>(_values.size()); }

  private:
    double _lo = 0.0, _hi = 1.0;
    std::vector<double> _values;
};

/**
 * 2-D tabulated function over a rectangular grid with bilinear
 * interpolation; used for the SCM step-error surface eps(V_in, code)
 * of Sec. 5.3, item 2.
 */
class Lut2d
{
  public:
    Lut2d() = default;

    /** Tabulate @p fn on an (nx x ny) grid over the given rectangle. */
    Lut2d(double x_lo, double x_hi, int nx, double y_lo, double y_hi,
          int ny, const std::function<double(double, double)> &fn);

    /** Bilinear lookup; clamps outside the rectangle. */
    double operator()(double x, double y) const;

    bool empty() const { return _values.empty(); }

  private:
    double _xLo = 0.0, _xHi = 1.0, _yLo = 0.0, _yHi = 1.0;
    int _nx = 0, _ny = 0;
    std::vector<double> _values; //!< row-major [ny][nx]
};

} // namespace leca

#endif // LECA_ANALOG_LUT_HH
