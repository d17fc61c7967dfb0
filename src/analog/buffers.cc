#include "buffers.hh"

namespace leca {

SourceFollower::SourceFollower(const BufferParams &params, Rng &mc_rng)
    : _params(params),
      _gainDelta(mc_rng.gaussian(0.0, params.gainMismatchSigma)),
      _offsetDelta(mc_rng.gaussian(0.0, params.offsetMismatchSigma))
{
}

SourceFollower::SourceFollower(const BufferParams &params) : _params(params)
{
}

double
SourceFollower::transfer(double vin) const
{
    const double d = vin - _params.center;
    return (_params.gain + _gainDelta) * vin + _params.offset
           + _offsetDelta + _params.cubic * d * d * d;
}

double
SourceFollower::linearModel(double vin) const
{
    return _params.gain * vin + _params.offset;
}

} // namespace leca
