/**
 * @file
 * The tests' one comparison of simulated outputs: every field of a
 * RunResult, HamsStats, NvmeEngineStats, FtlStats or LatencyBreakdown,
 * bit for bit, through the struct's field list (sim/field_list.hh) —
 * the same list the benches' determinism gates and the shard merges
 * read.
 */

#ifndef HAMS_TESTS_SAME_RUN_HH_
#define HAMS_TESTS_SAME_RUN_HH_

#include <gtest/gtest.h>

#include "sim/field_list.hh"

namespace hams {

/** Expect @p a and @p b identical; a failure names the first field
 *  that differs. */
template <class S>
void
expectIdentical(const S& a, const S& b, const char* what)
{
    FieldPath d = firstDifference(a, b);
    EXPECT_FALSE(d) << what << ": " << d.path() << " differs";
}

} // namespace hams

#endif // HAMS_TESTS_SAME_RUN_HH_
