/* A monotonic nanosecond clock for the benchmark's timers: the stdlib
   only offers Unix.gettimeofday, whose float loses sub-microsecond
   digits at today's epoch values. */
#include <time.h>
#include <caml/mlvalues.h>

value segbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}
