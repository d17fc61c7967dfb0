/**
 * @file
 * Dual-clock controller schedule (Fig. 6(b)): the slow controller-s
 * (100 MHz) sequences pixel readout, local-SRAM weight writes and
 * i-buffer writes; the fast controller-f (400 MHz) runs the 16-MAC SCM
 * burst per row and triggers the next row; after four rows the ofmap
 * is fetched through the ADC into the global SRAM.
 *
 * BandScheduler emits the explicit timed event trace of one 4-row band
 * so the operation sequence of Sec. 4.2 can be inspected, printed, and
 * cross-checked against the closed-form TimingModel.
 */

#ifndef LECA_HW_CONTROLLER_HH
#define LECA_HW_CONTROLLER_HH

#include <string>
#include <vector>

#include "hw/timing.hh"

namespace leca {

/** Which unit performs a scheduled operation. */
enum class ScheduleUnit
{
    RowScanner, //!< ROWSEL / pixel readout
    ControllerS,//!< 100 MHz slow controller
    ControllerF,//!< 400 MHz fast controller
    AdcArray    //!< ofmap fetch through the ADC
};

/** One timed operation in the band schedule. */
struct ScheduleEvent
{
    double startNs;
    double endNs;
    ScheduleUnit unit;
    std::string action;
};

/** Printable name of a schedule unit. */
std::string scheduleUnitName(ScheduleUnit unit);

/** Generates the Fig. 6(b) event trace for one 4-row band. */
class BandScheduler
{
  public:
    explicit BandScheduler(TimingConfig config = TimingConfig{});

    /** The full, time-ordered event list of one band. */
    std::vector<ScheduleEvent> schedule() const;

    /**
     * Duration actually needed by 16 MAC cycles at the 400 MHz fast
     * clock; must fit inside the budgeted MAC burst slot.
     */
    double macCyclesNs() const { return 16.0 * 2.5; }

    const TimingConfig &config() const { return _config; }

  private:
    TimingConfig _config;
};

} // namespace leca

#endif // LECA_HW_CONTROLLER_HH
