/* Monotonic nanosecond clock for the benchmark's spans and latencies:
   untagged and allocation-free, so a traced hot loop pays only the
   vDSO call.  And CPU pinning for the writer and reader domains. */
#define _GNU_SOURCE
#include <time.h>
#include <caml/mlvalues.h>

intnat perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value perfbench_now_ns_byte(value unit)
{
  return Val_long(perfbench_now_ns(unit));
}

/* Pin the calling thread to one CPU, or with a negative [cpu] let it
   run on every CPU again.  Returns whether the kernel agreed; where
   affinity is not supported it does nothing. */
#ifdef __linux__
#include <sched.h>
#include <unistd.h>

value perfbench_pin(value cpu)
{
  cpu_set_t set;
  long n = sysconf(_SC_NPROCESSORS_CONF);
  CPU_ZERO(&set);
  if (Long_val(cpu) >= 0) {
    CPU_SET(Long_val(cpu), &set);
  } else {
    for (long i = 0; i < n && i < CPU_SETSIZE; i++) CPU_SET(i, &set);
  }
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
#else
value perfbench_pin(value cpu)
{
  (void)cpu;
  return Val_false;
}
#endif
