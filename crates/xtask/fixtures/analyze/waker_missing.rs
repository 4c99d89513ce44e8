//! BNS-A004 fixture: `Bad::poll_recv` returns `Poll::Pending` after
//! finding its mailbox empty but never registers the task's waker;
//! `Good::poll_recv` does and must stay silent.

use std::task::{Context, Poll, Waker};

pub struct Mailbox;

impl Mailbox {
    pub fn take_match(&mut self) -> Option<u32> {
        None
    }
}

pub struct Bad {
    mbox: Mailbox,
}

impl Bad {
    pub fn poll_recv(&mut self, _cx: &mut Context<'_>) -> Poll<u32> {
        match self.mbox.take_match() {
            Some(v) => Poll::Ready(v),
            None => Poll::Pending,
        }
    }
}

pub struct Good {
    mbox: Mailbox,
    parked: Option<Waker>,
}

impl Good {
    pub fn poll_recv(&mut self, cx: &mut Context<'_>) -> Poll<u32> {
        match self.mbox.take_match() {
            Some(v) => Poll::Ready(v),
            None => {
                self.parked = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}
