#include "controller.hh"

#include <algorithm>

namespace leca {

std::string
scheduleUnitName(ScheduleUnit unit)
{
    switch (unit) {
      case ScheduleUnit::RowScanner:
        return "row-scanner";
      case ScheduleUnit::ControllerS:
        return "controller-s";
      case ScheduleUnit::ControllerF:
        return "controller-f";
      case ScheduleUnit::AdcArray:
        return "adc-array";
    }
    return "?";
}

BandScheduler::BandScheduler(TimingConfig config) : _config(config)
{
}

std::vector<ScheduleEvent>
BandScheduler::schedule() const
{
    std::vector<ScheduleEvent> events;
    double t = 0.0;
    for (int row = 0; row < 4; ++row) {
        const std::string row_tag = " (row " + std::to_string(row) + ")";
        // Step 1: ROWSEL on; the weight write is hidden behind it.
        events.push_back({t, t + _config.pixelRowReadoutNs,
                          ScheduleUnit::RowScanner,
                          "ROWSEL pixel readout" + row_tag});
        events.push_back({t, t + _config.localSramWriteNs,
                          ScheduleUnit::ControllerS,
                          "local SRAM weight write (16x5b)" + row_tag});
        t += _config.pixelRowReadoutNs;
        // Step 1 (end): i-buffer write after ROWSEL turns off.
        events.push_back({t, t + _config.iBufferWriteNs,
                          ScheduleUnit::ControllerS,
                          "i-buffer write (4 analog values)" + row_tag});
        t += _config.iBufferWriteNs;
        // Step 2: the 16-MAC SCM burst under controller-f.
        events.push_back({t, t + _config.macBurstNs,
                          ScheduleUnit::ControllerF,
                          "SCM MAC burst (16 sample/transfer cycles)"
                              + row_tag});
        t += _config.macBurstNs;
        // Step 3: controller-f triggers the next row (implicit: the
        // next iteration's ROWSEL starts at the current t).
    }
    // Step 4: fetch the 4 ofmap elements through the ADC to the SRAM.
    events.push_back({t, t + _config.ofmapFetchNs, ScheduleUnit::AdcArray,
                      "ofmap fetch: o-buffers -> ADC -> global SRAM"});
    return events;
}

} // namespace leca
