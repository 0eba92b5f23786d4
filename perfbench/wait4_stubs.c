/* wait4(2) for the benchmark's process runner: OCaml's Unix library reaps
   children with waitpid, which drops the child's resource usage, and the
   peak resident set of each measured process is an end-to-end metric. */

#include <errno.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* [perfbench_wait4 pid] blocks until [pid] ends and returns
   (exit code, peak RSS in KiB, user+system CPU seconds).  A child
   killed by signal [s] reports exit code 128 + s, as a shell would. */
value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r;
  pid_t pid = (pid_t)Int_val(vpid);
  memset(&ru, 0, sizeof ru);
  caml_enter_blocking_section();
  do {
    r = wait4(pid, &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith(strerror(errno));
  int code = WIFEXITED(status) ? WEXITSTATUS(status)
             : WIFSIGNALED(status) ? 128 + WTERMSIG(status)
             : 255;
  double cpu = (double)ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6
               + (double)ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6;
  res = caml_alloc_tuple(3);
  Store_field(res, 0, Val_int(code));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  Store_field(res, 2, caml_copy_double(cpu));
  CAMLreturn(res);
}
