/* Test-only fault injection: cap the size of files this process may
   write (RLIMIT_FSIZE), so a write that crosses the cap stores a prefix
   of its bytes and then fails with EFBIG. */

#include <sys/resource.h>
#include <caml/mlvalues.h>
#include <caml/fail.h>

/* Set the soft limit to [limit] bytes (-1: unlimited); return the
   previous soft limit in the same encoding. */
value tdp_test_set_fsize_limit(value limit)
{
  struct rlimit r;
  rlim_t old;
  if (getrlimit(RLIMIT_FSIZE, &r) != 0) caml_failwith("getrlimit");
  old = r.rlim_cur;
  r.rlim_cur = Long_val(limit) < 0 ? RLIM_INFINITY : (rlim_t) Long_val(limit);
  if (setrlimit(RLIMIT_FSIZE, &r) != 0) caml_failwith("setrlimit");
  return Val_long(old == RLIM_INFINITY ? -1 : (long) old);
}
