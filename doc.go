// Package repro reproduces Jiang, Shan & Singh, "Application Restructuring
// and Performance Portability on Shared Virtual Memory and Hardware-Coherent
// Multiprocessors" (PPoPP 1997).
//
// The simulators, applications and experiment engine live under internal/;
// the front ends are the commands under cmd/ (svmsim for one cell, figures
// for the paper's figures, campaign for declared studies) and
// examples/newapp shows an SPMD body written against the kernel. This
// package holds only the paper-claims table (TestClaims). See DESIGN.md for
// the system inventory and EXPERIMENTS.md for paper-vs-measured results.
package repro
