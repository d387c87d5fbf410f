/**
 * @file
 * The controller flavour as a gtest parameter, shared by the suites that
 * run every test on all four flavours. The parameter is an enum, not the
 * factory name, so the instance names ctest lists stay stable; the
 * controller itself always comes from ssd::makeController(factoryName()).
 */

#ifndef BABOL_TESTS_FLAVOR_PARAM_HH
#define BABOL_TESTS_FLAVOR_PARAM_HH

#include <gtest/gtest.h>

#include <string>

enum class Flavor { Coroutine, Rtos, HwSync, HwAsync };

/** The ssd::makeController name of @p flavor. */
inline const char *
factoryName(Flavor flavor)
{
    switch (flavor) {
      case Flavor::Coroutine:
        return "coro";
      case Flavor::Rtos:
        return "rtos";
      case Flavor::HwSync:
        return "hw-sync";
      case Flavor::HwAsync:
        return "hw-async";
    }
    return "?";
}

inline bool
isHardwareFlavor(Flavor flavor)
{
    return flavor == Flavor::HwSync || flavor == Flavor::HwAsync;
}

/** Instance labels: the factory name without '-', "coro" spelled out. */
inline std::string
flavorLabel(const testing::TestParamInfo<Flavor> &info)
{
    if (info.param == Flavor::Coroutine)
        return "coroutine";
    std::string label = factoryName(info.param);
    std::erase(label, '-');
    return label;
}

#endif // BABOL_TESTS_FLAVOR_PARAM_HH
