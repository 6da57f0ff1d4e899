//! Regenerates Fig. 6: the `Encrypt` process with its inferred loan
//! times, plus the type errors its deliberately-unsafe tail produces
//! (the double `enc_res` send of §5.4 "Valid Message Send").

use anvil_core::{Control, Session};

/// The paper's Fig. 6 `Encrypt`, transliterated. The two trailing sends
/// of `enc_res` overlap, and the noise-combination is used past its
/// lifetime — both of which the paper walks through as violations.
const ENCRYPT_UNSAFE: &str = "
    chan encrypt_ch {
        left enc_req : (logic[8]@enc_res),
        right enc_res : (logic[8]@enc_req)
    }
    chan rng_ch {
        left rng_req : (logic[8]@#1),
        right rng_res : (logic[8]@#2)
    }
    proc encrypt(ch1 : left encrypt_ch, ch2 : left rng_ch) {
        reg rd1_ctext : logic[8];
        reg r2_key : logic[8];
        loop {
            let ptext = recv ch1.enc_req;
            let noise = recv ch2.rng_req;
            ptext >>
            if ptext != 0 {
                noise >>
                set rd1_ctext := (ptext ^ 8'd25) + noise
            } else { set rd1_ctext := ptext } >>
            cycle 1 >>
            set r2_key := 8'd25 ^ *rd1_ctext >>
            let ctext_out = *rd1_ctext ^ *r2_key >>
            send ch2.rng_res (*r2_key) >>
            send ch1.enc_res (ctext_out) >>
            send ch1.enc_res (8'd25) >>
            cycle 1
        }
    }";

/// The repaired Encrypt: one response per request, all values registered.
const ENCRYPT_SAFE: &str = "
    chan encrypt_ch {
        left enc_req : (logic[8]@enc_res),
        right enc_res : (logic[8]@#1)
    }
    chan rng_ch {
        left rng_req : (logic[8]@#2)
    }
    proc encrypt(ch1 : left encrypt_ch, ch2 : left rng_ch) {
        reg rd1_ctext : logic[8];
        reg r2_key : logic[8];
        loop {
            let ptext = recv ch1.enc_req >>
            let noise = recv ch2.rng_req >>
            if ptext != 0 {
                set rd1_ctext := (ptext ^ 8'd25) + noise
            } else { set rd1_ctext := ptext } >>
            set r2_key := 8'd25 ^ *rd1_ctext >>
            send ch1.enc_res (*rd1_ctext ^ *r2_key) >>
            cycle 1
        }
    }";

fn main() {
    println!("== Fig. 6: Encrypt, as written in the paper (with its violations) ==\n");
    let session = Session::new();
    match session.check(ENCRYPT_UNSAFE, &Control::none()) {
        Ok((_, reports)) => {
            for (proc, rep) in &reports {
                for thread in &rep.threads {
                    println!("process `{proc}` — inferred loans:");
                    for (reg, loans) in &thread.loans {
                        for loan in loans {
                            println!("  `{reg}` loaned from e{} ({})", loan.start.0, loan.origin);
                        }
                    }
                    println!("\nviolations (cf. §5.4's walkthrough):");
                    for e in &thread.errors {
                        println!("  {e}");
                    }
                }
            }
        }
        Err(e) => println!("{}", e.render(ENCRYPT_UNSAFE)),
    }

    println!("\n== Repaired Encrypt ==\n");
    match session.compile(ENCRYPT_SAFE) {
        Ok(out) => {
            println!("accepted; emitted SystemVerilog module:");
            for line in out.systemverilog.lines().take(12) {
                println!("  {line}");
            }
            println!("  ...");
        }
        Err(e) => println!("unexpectedly rejected:\n{}", e.render(ENCRYPT_SAFE)),
    }
}
