"""The generated C project's runtime library (queues, timers, logging).

Paper Figure 2 shows the executable application linking "run-time libraries
& custom functions".  These templates provide that library: signal queues,
a cooperative priority scheduler, a timer wheel, a CRC-32 routine, and the
log-file hooks the profiling tool consumes.
"""

from __future__ import annotations

RUNTIME_HEADER = """\
/* tut_runtime.h — runtime library for TUT-Profile generated applications */
#ifndef TUT_RUNTIME_H
#define TUT_RUNTIME_H

#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define TUT_MAX_ARGS 4
#define TUT_MAX_TIMERS 8
#define TUT_QUEUE_DEPTH 256

typedef struct {
    int id;
    int32_t args[TUT_MAX_ARGS];
    int argc;
    int sender;                /* process index */
} tut_signal_t;

typedef struct tut_process {
    const char *name;
    int index;
    int state;
    int priority;
    int terminated;
    tut_signal_t queue[TUT_QUEUE_DEPTH];
    int queue_head, queue_len;
    int64_t timer_deadline[TUT_MAX_TIMERS];  /* -1 = disarmed, in us */
} tut_process;

/* implemented by the generated application table */
const char *tut_signal_name(int id);

/* runtime services used by generated code */
void tut_send(void *ctx, int signal_id, const int32_t *args, int argc,
              const char *via_port);
void tut_set_timer(void *ctx, int timer_id, int32_t duration_us);
void tut_reset_timer(void *ctx, int timer_id);
uint32_t tut_crc32(uint32_t value, uint32_t seed);
int32_t tut_rand16(uint16_t *state);
static inline int32_t tut_min(int32_t a, int32_t b) { return a < b ? a : b; }
static inline int32_t tut_max(int32_t a, int32_t b) { return a > b ? a : b; }
static inline int32_t tut_abs(int32_t a) { return a < 0 ? -a : a; }

/* profiling instrumentation (the paper's custom log-file functions) */
void tut_log_open(const char *path);
void tut_log_exec(tut_process *proc, const char *trigger);
void tut_log_signal(tut_process *sender, tut_process *receiver, int signal_id);
void tut_log_close(void);

/* scheduler */
void tut_scheduler_run(int64_t duration_us);

#endif /* TUT_RUNTIME_H */
"""

RUNTIME_SOURCE = """\
/* tut_runtime.c — runtime library implementation */
#include "tut_runtime.h"
#include "tut_app.h"

static FILE *tut_log_file = NULL;
static int64_t tut_now_us = 0;

/* ---------------------------------------------------------------- CRC-32 */

static uint32_t tut_crc_table[256];
static int tut_crc_ready = 0;

static void tut_crc_init(void)
{
    for (uint32_t i = 0; i < 256; i++) {
        uint32_t r = i;
        for (int b = 0; b < 8; b++)
            r = (r & 1) ? (r >> 1) ^ 0xEDB88320u : (r >> 1);
        tut_crc_table[i] = r;
    }
    tut_crc_ready = 1;
}

uint32_t tut_crc32(uint32_t value, uint32_t seed)
{
    if (!tut_crc_ready) tut_crc_init();
    uint32_t r = seed ^ 0xFFFFFFFFu;
    for (int i = 0; i < 4; i++) {
        uint8_t byte = (uint8_t)(value >> (8 * i));
        r = (r >> 8) ^ tut_crc_table[(r ^ byte) & 0xFFu];
    }
    return r ^ 0xFFFFFFFFu;
}

int32_t tut_rand16(uint16_t *state)
{
    *state = (uint16_t)((*state * 75 + 74) % 65537u);
    return (int32_t)(*state & 0xFFFF);
}

/* ------------------------------------------------------------- logging */

void tut_log_open(const char *path)
{
    tut_log_file = fopen(path, "w");
    if (tut_log_file) fprintf(tut_log_file, "TUTLOG 2\\n");
}

void tut_log_exec(tut_process *proc, const char *trigger)
{
    if (tut_log_file)
        fprintf(tut_log_file,
                "EXEC time=%lld process=%s pe=native cycles=1 duration=0 "
                "from=- to=- trigger=%s statements=0 transitions=-\\n",
                (long long)tut_now_us * 1000000LL, proc->name, trigger);
}

void tut_log_signal(tut_process *sender, tut_process *receiver, int signal_id)
{
    if (tut_log_file)
        fprintf(tut_log_file,
                "SIG time=%lld signal=%s sender=%s receiver=%s bytes=0 "
                "latency=0 transport=local\\n",
                (long long)tut_now_us * 1000000LL, tut_signal_name(signal_id),
                sender ? sender->name : "-", receiver->name);
}

void tut_log_close(void)
{
    if (tut_log_file) {
        fprintf(tut_log_file, "END time=%lld events=0\\n",
                (long long)tut_now_us * 1000000LL);
        fclose(tut_log_file);
        tut_log_file = NULL;
    }
}

/* ------------------------------------------------------------- queues */

static void tut_enqueue(tut_process *proc, const tut_signal_t *sig)
{
    if (proc->queue_len >= TUT_QUEUE_DEPTH) {
        fprintf(stderr, "queue overflow on %s\\n", proc->name);
        return;
    }
    int tail = (proc->queue_head + proc->queue_len) % TUT_QUEUE_DEPTH;
    proc->queue[tail] = *sig;
    proc->queue_len++;
}

void tut_send(void *ctx, int signal_id, const int32_t *args, int argc,
              const char *via_port)
{
    tut_process *sender = (tut_process *)ctx;
    int receiver_index = tut_route(sender->index, signal_id, via_port);
    if (receiver_index < 0) return;
    tut_process *receiver = tut_process_at(receiver_index);
    tut_signal_t sig;
    memset(&sig, 0, sizeof sig);
    sig.id = signal_id;
    sig.argc = argc > TUT_MAX_ARGS ? TUT_MAX_ARGS : argc;
    for (int i = 0; i < sig.argc; i++) sig.args[i] = args[i];
    sig.sender = sender->index;
    tut_enqueue(receiver, &sig);
    tut_log_signal(sender, receiver, signal_id);
}

/* ------------------------------------------------------------- timers */

void tut_set_timer(void *ctx, int timer_id, int32_t duration_us)
{
    tut_process *proc = (tut_process *)ctx;
    if (timer_id >= 0 && timer_id < TUT_MAX_TIMERS)
        proc->timer_deadline[timer_id] = tut_now_us + duration_us;
}

void tut_reset_timer(void *ctx, int timer_id)
{
    tut_process *proc = (tut_process *)ctx;
    if (timer_id >= 0 && timer_id < TUT_MAX_TIMERS)
        proc->timer_deadline[timer_id] = -1;
}

/* ----------------------------------------------------------- scheduler */

static int tut_fire_due_timers(void)
{
    int fired = 0;
    for (int p = 0; p < tut_process_count(); p++) {
        tut_process *proc = tut_process_at(p);
        if (proc->terminated) continue;
        for (int t = 0; t < TUT_MAX_TIMERS; t++) {
            if (proc->timer_deadline[t] >= 0 &&
                proc->timer_deadline[t] <= tut_now_us) {
                proc->timer_deadline[t] = -1;
                tut_dispatch_timer(p, t);
                fired++;
            }
        }
    }
    return fired;
}

static int tut_drain_one_signal(void)
{
    /* highest priority process with a pending signal runs first */
    int best = -1;
    for (int p = 0; p < tut_process_count(); p++) {
        tut_process *proc = tut_process_at(p);
        if (proc->terminated || proc->queue_len == 0) continue;
        if (best < 0 || proc->priority > tut_process_at(best)->priority)
            best = p;
    }
    if (best < 0) return 0;
    tut_process *proc = tut_process_at(best);
    tut_signal_t sig = proc->queue[proc->queue_head];
    proc->queue_head = (proc->queue_head + 1) % TUT_QUEUE_DEPTH;
    proc->queue_len--;
    tut_dispatch_signal(best, &sig);
    return 1;
}

static int64_t tut_next_deadline(void)
{
    int64_t next = -1;
    for (int p = 0; p < tut_process_count(); p++) {
        tut_process *proc = tut_process_at(p);
        for (int t = 0; t < TUT_MAX_TIMERS; t++) {
            int64_t d = proc->timer_deadline[t];
            if (d >= 0 && (next < 0 || d < next)) next = d;
        }
    }
    return next;
}

void tut_scheduler_run(int64_t duration_us)
{
    tut_now_us = 0;
    tut_dispatch_start();
    while (tut_now_us <= duration_us) {
        tut_fire_due_timers();
        while (tut_drain_one_signal())
            ;
        int64_t next = tut_next_deadline();
        if (next < 0) break;          /* nothing left to happen */
        if (next <= tut_now_us) next = tut_now_us + 1;
        tut_now_us = next;
    }
}
"""


def makefile(component_names) -> str:
    """A Makefile building the generated project."""
    objects = " ".join(f"{name}.o" for name in component_names)
    return f"""\
# Generated Makefile for the TUT-Profile application build
CC ?= cc
CFLAGS ?= -std=c99 -Wall -Wextra -O2

OBJS = tut_runtime.o tut_app.o main.o {objects}

app: $(OBJS)
\t$(CC) $(CFLAGS) -o $@ $(OBJS)

%.o: %.c
\t$(CC) $(CFLAGS) -c $< -o $@

clean:
\trm -f app *.o
.PHONY: clean
"""
