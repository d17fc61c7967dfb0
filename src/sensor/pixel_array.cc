#include "pixel_array.hh"

#include <cstdint>

#include "util/check.hh"
#include "util/parallel.hh"

namespace leca {

PixelArray::PixelArray(SensorConfig config, int rows, int cols)
    : _config(config), _noise(config), _rows(rows), _cols(cols),
      _frame({rows, cols})
{
    LECA_CHECK(rows > 0 && cols > 0, "bad pixel array geometry");
}

void
PixelArray::expose(const Tensor &raw_scene, Rng &rng, bool noisy)
{
    LECA_CHECK(raw_scene.dim() == 2 && raw_scene.size(0) == _rows &&
                raw_scene.size(1) == _cols,
                "scene shape does not match pixel array");
    _frame = noisy ? _noise.apply(raw_scene, rng) : raw_scene;
    _exposed = true;
}

std::vector<double>
PixelArray::readRowVoltages(int row) const
{
    LECA_CHECK(_exposed, "readRowVoltages before expose");
    LECA_CHECK(row >= 0 && row < _rows, "row ", row, " out of range");
    std::vector<double> voltages(static_cast<std::size_t>(_cols));
    // Column readout is embarrassingly parallel (disjoint writes); the
    // large grain keeps small arrays on the calling thread.
    const float *frame_row =
        _frame.data() + static_cast<std::int64_t>(row) * _cols;
    parallelFor(0, _cols, 4096, [&](std::int64_t x0, std::int64_t x1) {
        for (int x = static_cast<int>(x0); x < x1; ++x)
            voltages[static_cast<std::size_t>(x)] =
                _config.digitalToVoltage(frame_row[x]);
    });
    return voltages;
}

} // namespace leca
