/**
 * @file
 * The tests' one RunResult comparison: every field, bit for bit,
 * through hams::sameSimOutputs — the same equality the benches gate on.
 */

#ifndef HAMS_TESTS_SAME_RUN_HH_
#define HAMS_TESTS_SAME_RUN_HH_

#include <gtest/gtest.h>

#include "cpu/smp_model.hh"

namespace hams {

/** Expect @p a and @p b identical; a failure names the first field
 *  that differs. */
inline void
expectIdentical(const RunResult& a, const RunResult& b, const char* what)
{
    const char* field = nullptr;
    EXPECT_TRUE(sameSimOutputs(a, b, &field))
        << what << ": RunResult::" << field << " differs";
}

} // namespace hams

#endif // HAMS_TESTS_SAME_RUN_HH_
