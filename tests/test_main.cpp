/**
 * @file
 * Shared main of the test binaries: gtest_main plus the threadsafe
 * death-test style.
 *
 * The default ("fast") style forks the test process, and the child
 * inherits only the forking thread: once a test has started the thread
 * pool, a forked child that needs the pool's workers hangs or crashes.
 * The threadsafe style re-executes the binary for each death test
 * instead, so EXPECT_DEATH/EXPECT_EXIT hold in any test order and at any
 * DOTA_THREADS. A --gtest_death_test_style flag still overrides it.
 */
#include <gtest/gtest.h>

int
main(int argc, char **argv)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
